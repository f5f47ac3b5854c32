package deploy

import (
	"fmt"
	"sync"
	"time"
)

// Image is a container image in the registry (the dashDB Local image on
// the Docker Hub private repository, §II.A).
type Image struct {
	Name      string
	Version   string
	SizeBytes int64
}

// Registry simulates the image registry.
type Registry struct {
	mu     sync.RWMutex
	images map[string]Image // name:version -> image
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{images: make(map[string]Image)}
}

// Push publishes an image version.
func (r *Registry) Push(img Image) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[img.Name+":"+img.Version] = img
}

// Pull fetches an image by name:version.
func (r *Registry) Pull(name, version string) (Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[name+":"+version]
	if !ok {
		return Image{}, fmt.Errorf("deploy: image %s:%s not found", name, version)
	}
	return img, nil
}

// ContainerState is the lifecycle state.
type ContainerState uint8

const (
	// StateCreated means the container exists but has not started.
	StateCreated ContainerState = iota
	// StateRunning means the engine inside is up.
	StateRunning
	// StateStopped means the container was stopped; data persists on the
	// mounted clustered filesystem.
	StateStopped
)

// String names the state.
func (s ContainerState) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	default:
		return "stopped"
	}
}

// Timing model constants for the simulated deployment timeline. They are
// calibrated to the paper's statements: "seconds to start container from
// new image, few minutes to start dashDB engine on large memory
// configurations", with full clusters deploying in < 30 minutes.
const (
	// PullBandwidth is the registry download rate.
	PullBandwidth = 100 << 20 // bytes per simulated second
	// ContainerStartTime is the docker-run-to-process latency.
	ContainerStartTime = 5 * time.Second
	// EngineStartBase is the fixed engine boot cost.
	EngineStartBase = 20 * time.Second
	// EngineStartPerRAM is extra engine start time per GiB of RAM
	// (buffer pool formatting, memory registration).
	EngineStartPerRAM = 1500 * time.Millisecond
)

// Container is one dashDB Local container on a host. Only one per Docker
// host is allowed (§II.A).
type Container struct {
	Image  Image
	Host   *Host
	State  ContainerState
	Config EngineConfig
	// MountPath is the clustered-filesystem mount (always /mnt/clusterfs).
	MountPath string
}

// Host is a machine running the Docker engine.
type Host struct {
	Name    string
	HW      Hardware
	mu      sync.Mutex
	current *Container
	pulled  map[string]bool // image name:version already local
}

// NewHost creates a host.
func NewHost(name string, hw Hardware) *Host {
	return &Host{Name: name, HW: hw, pulled: make(map[string]bool)}
}

// Phase is one step of a deployment timeline.
type Phase struct {
	Name     string
	Duration time.Duration
}

// Timeline is an ordered simulated deployment schedule.
type Timeline struct {
	Phases []Phase
}

// Total returns the end-to-end simulated duration.
func (t Timeline) Total() time.Duration {
	var sum time.Duration
	for _, p := range t.Phases {
		sum += p.Duration
	}
	return sum
}

// String renders the timeline for reports.
func (t Timeline) String() string {
	s := ""
	for _, p := range t.Phases {
		s += fmt.Sprintf("%-24s %8.1fs\n", p.Name, p.Duration.Seconds())
	}
	s += fmt.Sprintf("%-24s %8.1fs", "TOTAL", t.Total().Seconds())
	return s
}

// Run simulates `docker run` of the image on this host: pull (if absent),
// create, start container, start engine with auto-configuration. It
// returns the running container and its simulated timeline. Running a
// second container on one host is rejected, matching the paper's "only
// one dashDB Local container per Docker host".
func (h *Host) Run(reg *Registry, name, version string) (*Container, Timeline, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.current != nil && h.current.State == StateRunning {
		return nil, Timeline{}, fmt.Errorf("deploy: host %s already runs a dashDB Local container", h.Name)
	}
	if !h.HW.Meets(MinimumHardware) {
		return nil, Timeline{}, fmt.Errorf("deploy: host %s below entry-level requirements (8GB RAM / 20GB storage)", h.Name)
	}
	img, err := reg.Pull(name, version)
	if err != nil {
		return nil, Timeline{}, err
	}
	var tl Timeline
	key := img.Name + ":" + img.Version
	if !h.pulled[key] {
		pull := time.Duration(float64(img.SizeBytes)/float64(PullBandwidth)) * time.Second
		tl.Phases = append(tl.Phases, Phase{Name: "pull image", Duration: pull})
		h.pulled[key] = true
	}
	tl.Phases = append(tl.Phases, Phase{Name: "start container", Duration: ContainerStartTime})

	cfg := AutoConfigure(h.HW)
	engineStart := EngineStartBase + time.Duration(h.HW.RAMBytes>>30)*EngineStartPerRAM
	tl.Phases = append(tl.Phases, Phase{Name: "auto-configure + engine start", Duration: engineStart})

	c := &Container{
		Image:     img,
		Host:      h,
		State:     StateRunning,
		Config:    cfg,
		MountPath: "/mnt/clusterfs",
	}
	h.current = c
	return c, tl, nil
}
