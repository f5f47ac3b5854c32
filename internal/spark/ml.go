package spark

import (
	"fmt"
	"math"

	"dashdb/internal/types"
)

// GLMFamily selects the generalized linear model link.
type GLMFamily uint8

const (
	// Gaussian is ordinary least-squares linear regression.
	Gaussian GLMFamily = iota
	// Binomial is logistic regression.
	Binomial
)

// GLMConfig tunes training.
type GLMConfig struct {
	Family     GLMFamily
	Iterations int
	LearnRate  float64
	L2         float64
}

// GLMModel is a fitted generalized linear model — the "ready to use
// analytic algorithms like GLM" of §II.D, trained with distributed
// gradient aggregation over the dataset's partitions (each partition's
// gradient is computed by its worker, then merged, MLlib-style).
type GLMModel struct {
	Weights   []float64 // per feature
	Intercept float64
	Family    GLMFamily
	Loss      []float64 // training loss per iteration
}

// glmGrad is the per-partition gradient accumulator.
type glmGrad struct {
	g    []float64
	g0   float64
	loss float64
	n    int
}

// TrainGLM fits a GLM over the dataset's label and feature columns.
func (d *Dataset) TrainGLM(labelCol int, featureCols []int, cfg GLMConfig) (*GLMModel, error) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 100
	}
	if cfg.LearnRate <= 0 {
		cfg.LearnRate = 0.1
	}
	nf := len(featureCols)
	if nf == 0 {
		return nil, fmt.Errorf("spark: GLM needs at least one feature column")
	}
	model := &GLMModel{Weights: make([]float64, nf), Family: cfg.Family}

	// Feature standardization constants (single pass).
	type stats struct {
		sum, sumSq []float64
		n          int
	}
	st, err := AggregateTyped(d,
		func() *stats { return &stats{sum: make([]float64, nf), sumSq: make([]float64, nf)} },
		func(s *stats, row types.Row) *stats {
			for i, fc := range featureCols {
				v, ok := row[fc].AsFloat()
				if !ok {
					return s
				}
				s.sum[i] += v
				s.sumSq[i] += v * v
			}
			s.n++
			return s
		},
		func(x, y *stats) *stats {
			for i := range x.sum {
				x.sum[i] += y.sum[i]
				x.sumSq[i] += y.sumSq[i]
			}
			x.n += y.n
			return x
		},
	)
	if err != nil {
		return nil, err
	}
	if st.n == 0 {
		return nil, fmt.Errorf("spark: GLM has no usable training rows")
	}
	mean := make([]float64, nf)
	scale := make([]float64, nf)
	for i := range mean {
		mean[i] = st.sum[i] / float64(st.n)
		variance := st.sumSq[i]/float64(st.n) - mean[i]*mean[i]
		if variance < 1e-12 {
			scale[i] = 1
		} else {
			scale[i] = math.Sqrt(variance)
		}
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		w, b := model.Weights, model.Intercept
		grad, err := AggregateTyped(d,
			func() *glmGrad { return &glmGrad{g: make([]float64, nf)} },
			func(gr *glmGrad, row types.Row) *glmGrad {
				yv, ok := row[labelCol].AsFloat()
				if !ok {
					return gr
				}
				x := make([]float64, nf)
				for i, fc := range featureCols {
					v, ok := row[fc].AsFloat()
					if !ok {
						return gr
					}
					x[i] = (v - mean[i]) / scale[i]
				}
				pred := b
				for i := range x {
					pred += w[i] * x[i]
				}
				var resid float64
				switch cfg.Family {
				case Binomial:
					p := 1 / (1 + math.Exp(-pred))
					resid = p - yv
					eps := 1e-12
					gr.loss += -(yv*math.Log(p+eps) + (1-yv)*math.Log(1-p+eps))
				default:
					resid = pred - yv
					gr.loss += resid * resid / 2
				}
				for i := range x {
					gr.g[i] += resid * x[i]
				}
				gr.g0 += resid
				gr.n++
				return gr
			},
			func(x, y *glmGrad) *glmGrad {
				for i := range x.g {
					x.g[i] += y.g[i]
				}
				x.g0 += y.g0
				x.loss += y.loss
				x.n += y.n
				return x
			},
		)
		if err != nil {
			return nil, err
		}
		if grad.n == 0 {
			return nil, fmt.Errorf("spark: GLM has no usable training rows")
		}
		n := float64(grad.n)
		for i := range model.Weights {
			model.Weights[i] -= cfg.LearnRate * (grad.g[i]/n + cfg.L2*model.Weights[i])
		}
		model.Intercept -= cfg.LearnRate * grad.g0 / n
		model.Loss = append(model.Loss, grad.loss/n)
	}

	// Fold standardization back into the reported coefficients.
	raw := make([]float64, nf)
	b0 := model.Intercept
	for i := range raw {
		raw[i] = model.Weights[i] / scale[i]
		b0 -= model.Weights[i] * mean[i] / scale[i]
	}
	model.Weights = raw
	model.Intercept = b0
	return model, nil
}

// Predict scores one feature vector.
func (m *GLMModel) Predict(x []float64) float64 {
	pred := m.Intercept
	for i, w := range m.Weights {
		pred += w * x[i]
	}
	if m.Family == Binomial {
		return 1 / (1 + math.Exp(-pred))
	}
	return pred
}

// KMeansModel is a fitted k-means clustering (MLlib's other flagship).
type KMeansModel struct {
	Centers    [][]float64
	Iterations int
}

// KMeans clusters the feature columns into k groups using Lloyd's
// algorithm with distributed assignment (per-partition partial sums).
//
//dashdb:nolint deadcode F-H: the integrated Spark ML surface, exercised by its tests
func (d *Dataset) KMeans(featureCols []int, k, maxIter int) (*KMeansModel, error) {
	X, _, err := d.Features(featureCols[0], featureCols...)
	if err != nil {
		return nil, err
	}
	if len(X) < k || k < 1 {
		return nil, fmt.Errorf("spark: k-means needs at least k=%d rows, have %d", k, len(X))
	}
	nf := len(featureCols)
	// Deterministic init: evenly spaced points of the collected set.
	centers := make([][]float64, k)
	for i := range centers {
		centers[i] = append([]float64(nil), X[i*len(X)/k]...)
	}
	model := &KMeansModel{Centers: centers}
	type partial struct {
		sum [][]float64
		cnt []int
	}
	for iter := 0; iter < maxIter; iter++ {
		model.Iterations = iter + 1
		p, err := AggregateTyped(d,
			func() *partial {
				pp := &partial{sum: make([][]float64, k), cnt: make([]int, k)}
				for i := range pp.sum {
					pp.sum[i] = make([]float64, nf)
				}
				return pp
			},
			func(pp *partial, row types.Row) *partial {
				x := make([]float64, nf)
				for i, fc := range featureCols {
					v, ok := row[fc].AsFloat()
					if !ok {
						return pp
					}
					x[i] = v
				}
				best, bestD := 0, math.Inf(1)
				for ci, c := range centers {
					dd := 0.0
					for i := range c {
						diff := x[i] - c[i]
						dd += diff * diff
					}
					if dd < bestD {
						best, bestD = ci, dd
					}
				}
				for i := range x {
					pp.sum[best][i] += x[i]
				}
				pp.cnt[best]++
				return pp
			},
			func(x, y *partial) *partial {
				for ci := range x.sum {
					for i := range x.sum[ci] {
						x.sum[ci][i] += y.sum[ci][i]
					}
					x.cnt[ci] += y.cnt[ci]
				}
				return x
			},
		)
		if err != nil {
			return nil, err
		}
		moved := 0.0
		for ci := range centers {
			if p.cnt[ci] == 0 {
				continue
			}
			for i := range centers[ci] {
				nc := p.sum[ci][i] / float64(p.cnt[ci])
				moved += math.Abs(nc - centers[ci][i])
				centers[ci][i] = nc
			}
		}
		if moved < 1e-9 {
			break
		}
	}
	return model, nil
}

// Assign returns the index of the nearest center.
//
//dashdb:nolint deadcode F-H: the integrated Spark ML surface, exercised by its tests
func (m *KMeansModel) Assign(x []float64) int {
	best, bestD := 0, math.Inf(1)
	for ci, c := range m.Centers {
		dd := 0.0
		for i := range c {
			diff := x[i] - c[i]
			dd += diff * diff
		}
		if dd < bestD {
			best, bestD = ci, dd
		}
	}
	return best
}
