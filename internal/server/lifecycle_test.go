package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// closeGatedPipe holds its Close, which a DELETE calls after it has
// released the server mutex: closing closes when Close starts, and
// Close returns once the test closes gate.
type closeGatedPipe struct {
	*fakePipe
	closing, gate chan struct{}
}

func (p *closeGatedPipe) Close() {
	close(p.closing)
	<-p.gate
}

// TestDeleteRacingSameNamePost holds a DELETE after it has released the
// server mutex while a POST registers the same name. The name is free
// only once the old wrapper's state is gone: the POST gets 409, or a
// wrapper that starts at version 1 and publishes every tick. It must
// never continue the old wrapper's versions on its log, and never go
// silent when the DELETE then removes that log.
func TestDeleteRacingSameNamePost(t *testing.T) {
	clk := newFakeClock()
	s := New(Config{Addr: "127.0.0.1:0", AllowDynamic: true, MaxCompilesPerMinute: -1,
		ResultStore: openStore(t, t.TempDir()), clock: clk})
	stop := runServer(t, s)
	defer stop()
	base := "http://" + s.Addr()

	old := &closeGatedPipe{fakePipe: newFakePipe("w", 0), closing: make(chan struct{}), gate: make(chan struct{})}
	if err := registerDynamic(s, old, 0, true); err != nil { // version 1 on the old log
		t.Fatal(err)
	}
	deleted := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest("DELETE", base+"/v1/wrappers/w", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			deleted <- 0
			return
		}
		resp.Body.Close()
		deleted <- resp.StatusCode
	}()
	<-old.closing
	spec := map[string]any{"name": "w", "program": v1Wrapper, "html": v1Page, "interval_ms": 5}
	code, body, _ := do(t, "POST", base+"/v1/wrappers", spec)
	close(old.gate)
	if got := <-deleted; got != http.StatusNoContent {
		t.Fatalf("DELETE: %d", got)
	}
	switch code {
	case http.StatusConflict:
		// The name was still taken; the DELETE has returned, so it is free.
		if code, body, _ = do(t, "POST", base+"/v1/wrappers", spec); code != http.StatusCreated {
			t.Fatalf("POST after the DELETE returned: %d %s", code, body)
		}
	case http.StatusCreated:
	default:
		t.Fatalf("POST racing the DELETE: %d %s", code, body)
	}
	for n := uint64(1); n <= 4; n++ {
		if n > 1 {
			clk.waitDue(t, 5*time.Millisecond)
			clk.Advance(5 * time.Millisecond)
			waitTicks(t, s, "w", n)
		}
		_, _, hdr := do(t, "GET", base+"/v1/wrappers/w/results", nil)
		if v := hdr.Get("Lixto-Version"); v != strconv.FormatUint(n, 10) {
			t.Fatalf("after %d ticks of the new wrapper: version %q, want %d", n, v, n)
		}
	}
	if st := s.cfg.ResultStore.Stats(); st.AppendErrors != 0 {
		t.Fatalf("%d append errors", st.AppendErrors)
	}
}

// TestDeleteAfterRegistrationLeavesNoSpec deletes a wrapper the moment
// the server logs its registration, before the POST has answered. By
// then the registration stands, its spec persisted, so the DELETE
// completes and removes everything: no spec.json is left, and Restore
// on a fresh server brings nothing back.
func TestDeleteAfterRegistrationLeavesNoSpec(t *testing.T) {
	dir := t.TempDir()
	store := openStore(t, dir)
	var ts string
	deleted := make(chan int, 1)
	logf := func(format string, _ ...any) {
		if !strings.HasPrefix(format, "server: registered dynamic pipeline") {
			return
		}
		done := make(chan int, 1)
		go func() {
			req, _ := http.NewRequest("DELETE", ts+"/v1/wrappers/w", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		select {
		case code := <-done:
			deleted <- code
		case <-time.After(5 * time.Second):
			t.Error("a DELETE issued once the registration was logged did not complete")
			go func() { deleted <- <-done }()
		}
	}
	_, srv := newDynamicServer(t, Config{ResultStore: store, Logf: logf})
	ts = srv.URL
	code, body, _ := do(t, "POST", ts+"/v1/wrappers", map[string]any{"name": "w", "program": v1Wrapper, "html": v1Page})
	if code != http.StatusCreated {
		t.Fatalf("POST: %d %s", code, body)
	}
	if got := <-deleted; got != http.StatusNoContent {
		t.Fatalf("DELETE: %d", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "w", specFile)); !os.IsNotExist(err) {
		t.Fatalf("spec.json outlived the DELETE (stat: %v)", err)
	}
	store.Close()

	store2 := openStore(t, dir)
	defer store2.Close()
	fresh := New(Config{ResultStore: store2})
	if n, err := fresh.Restore(); err != nil || n != 0 || fresh.pipe("w") != nil {
		t.Fatalf("Restore brought back %d wrappers (err %v)", n, err)
	}
}
