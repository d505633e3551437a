package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestErrorAccountingCountsShedsAndTimeouts(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/shed":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/broken":
			w.WriteHeader(http.StatusInternalServerError)
		case "/slow":
			select {
			case <-release:
			case <-r.Context().Done():
			}
		default:
			w.Write([]byte("{}")) //nolint:errcheck // test server
		}
	}))
	defer srv.Close()
	defer close(release)

	const timeout = 100 * time.Millisecond
	cl := newClient(srv.URL, timeout)
	var tl tally
	for _, path := range []string{"/ok", "/shed", "/broken", "/slow", "/ok"} {
		tl.add(cl.do(http.MethodPost, path, nil))
	}
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d, failed %d; want 5, 3", tl.attempted, tl.failed)
	}
	if tl.firstErr == nil {
		t.Error("no failure recorded")
	}
	for i, lat := range tl.lat {
		failed := i >= 1 && i <= 3
		if failed && lat != timeout {
			t.Errorf("failed request %d: latency %v, want the %v limit", i, lat, timeout)
		}
		if !failed && lat >= timeout {
			t.Errorf("request %d succeeded but took %v", i, lat)
		}
	}
}
