package spark

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RESTServer exposes the dispatcher over HTTP — §II.D's first integration
// method: "REST API interface to run, cancel, or monitor Spark
// applications in dashDB".
//
//	POST   /spark/jobs            {"user": "...", "app": "..."} → {"jobId": n}
//	GET    /spark/jobs?user=u     → [job, ...]
//	GET    /spark/jobs/{id}?user=u → job
//	DELETE /spark/jobs/{id}?user=u → {"state": "CANCELLED"}
//
// The user parameter scopes every request: per-user isolation exactly as
// in the programmatic API.
type RESTServer struct {
	d  *Dispatcher
	ln net.Listener
	wg sync.WaitGroup // joins the HTTP serve loop on Close
}

// jobJSON is the wire form of a job snapshot.
type jobJSON struct {
	JobID     int64  `json:"jobId"`
	User      string `json:"user"`
	App       string `json:"app"`
	State     string `json:"state"`
	Submitted string `json:"submitted"`
	Error     string `json:"error,omitempty"`
}

func toJobJSON(j Job) jobJSON {
	return jobJSON{
		JobID:     j.ID,
		User:      j.User,
		App:       j.App,
		State:     j.State.String(),
		Submitted: j.Submitted.UTC().Format(time.RFC3339),
		Error:     j.Err,
	}
}

// NewRESTServer starts the HTTP interface on an ephemeral loopback port.
func NewRESTServer(d *Dispatcher) (*RESTServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("spark: REST listen: %w", err)
	}
	s := &RESTServer{d: d, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/spark/jobs", s.handleJobs)
	mux.HandleFunc("/spark/jobs/", s.handleJob)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		// Serve exits with a "use of closed network connection" error when
		// Close tears the listener down; that is the shutdown signal, not a
		// failure.
		_ = http.Serve(ln, mux) //dashdb:nolint droppederr listener close is the shutdown path
	}()
	return s, nil
}

// Close stops the server and joins its serve loop.
func (s *RESTServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// handleJobs serves POST (submit) and GET (list).
func (s *RESTServer) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req struct {
			User string `json:"user"`
			App  string `json:"app"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if req.User == "" || req.App == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("user and app are required"))
			return
		}
		id, err := s.d.Submit(req.User, req.App)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]int64{"jobId": id})
	case http.MethodGet:
		user := r.URL.Query().Get("user")
		if user == "" {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("user query parameter is required"))
			return
		}
		jobs := s.d.Jobs(user)
		out := make([]jobJSON, 0, len(jobs))
		for _, j := range jobs {
			out = append(out, toJobJSON(j))
		}
		writeJSON(w, http.StatusOK, out)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleJob serves GET (status) and DELETE (cancel) for one job.
func (s *RESTServer) handleJob(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/spark/jobs/")
	id, err := strconv.ParseInt(idStr, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", idStr))
		return
	}
	user := r.URL.Query().Get("user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("user query parameter is required"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		job, err := s.d.Status(user, id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, toJobJSON(job))
	case http.MethodDelete:
		if err := s.d.Cancel(user, id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"state": JobCancelled.String()})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}
