package spark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"
)

// baseURL returns the server's base address, e.g. "http://127.0.0.1:43210".
func baseURL(s *RESTServer) string { return "http://" + s.ln.Addr().String() }

func restFixture(t *testing.T) (*Dispatcher, *RESTServer) {
	t.Helper()
	_, d := newDispatcher(t, 500)
	d.RegisterApp("count", func(ctx *Context) (interface{}, error) {
		ds, err := ctx.Table("points", "")
		if err != nil {
			return nil, err
		}
		return ds.Count(), nil
	})
	d.RegisterApp("slow", func(ctx *Context) (interface{}, error) {
		for i := 0; i < 500; i++ {
			time.Sleep(2 * time.Millisecond)
			ctx.checkCancelled()
		}
		return nil, nil
	})
	srv, err := NewRESTServer(d)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return d, srv
}

func postJob(t *testing.T, srv *RESTServer, user, app string) (int64, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"user": user, "app": app})
	resp, err := http.Post(baseURL(srv)+"/spark/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int64
	json.NewDecoder(resp.Body).Decode(&out)
	return out["jobId"], resp.StatusCode
}

func TestRESTSubmitStatusList(t *testing.T) {
	d, srv := restFixture(t)
	id, code := postJob(t, srv, "ana", "count")
	if code != http.StatusAccepted || id == 0 {
		t.Fatalf("submit: %d id=%d", code, id)
	}
	if _, err := d.Wait(id); err != nil {
		t.Fatal(err)
	}
	// Status.
	resp, err := http.Get(fmt.Sprintf("%s/spark/jobs/%d?user=ana", baseURL(srv), id))
	if err != nil {
		t.Fatal(err)
	}
	var job jobJSON
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if job.State != "DONE" || job.App != "count" {
		t.Fatalf("status %+v", job)
	}
	// List.
	resp, err = http.Get(baseURL(srv) + "/spark/jobs?user=ana")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []jobJSON
	json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if len(jobs) != 1 || jobs[0].JobID != id {
		t.Fatalf("list %+v", jobs)
	}
}

func TestRESTIsolationAndCancel(t *testing.T) {
	_, srv := restFixture(t)
	id, _ := postJob(t, srv, "ana", "slow")
	// Another user cannot see or cancel it.
	resp, _ := http.Get(fmt.Sprintf("%s/spark/jobs/%d?user=bob", baseURL(srv), id))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-user status %d", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/spark/jobs/%d?user=bob", baseURL(srv), id), nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-user cancel %d", resp.StatusCode)
	}
	resp.Body.Close()
	// The owner cancels.
	req, _ = http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/spark/jobs/%d?user=ana", baseURL(srv), id), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if out["state"] != "CANCELLED" {
		t.Fatalf("cancel %+v", out)
	}
}

func TestRESTErrors(t *testing.T) {
	_, srv := restFixture(t)
	// Unregistered app.
	if _, code := postJob(t, srv, "ana", "ghost"); code != http.StatusNotFound {
		t.Fatalf("unknown app: %d", code)
	}
	// Missing user on list.
	resp, _ := http.Get(baseURL(srv) + "/spark/jobs")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing user: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad job id.
	resp, _ = http.Get(baseURL(srv) + "/spark/jobs/not-a-number?user=ana")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Bad method.
	req, _ := http.NewRequest(http.MethodPut, baseURL(srv)+"/spark/jobs", nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("bad method: %d", resp.StatusCode)
	}
	resp.Body.Close()
}
