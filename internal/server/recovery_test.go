package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resultlog"
)

// The crash-recovery differential test: a child server process (this
// test binary re-executed) is SIGKILLed three times — no flush, no
// shutdown hook — and restarted over the same data directory each
// time. It must serve the latest result, ETag, and history
// byte-identically, resume webhook cursors, continue the version
// sequence, and deliver every version to its webhook at least once,
// even when a kill lands with a delivery in flight.

// recoveryChildEnv points the re-executed child at its data directory.
const recoveryChildEnv = "LIXTO_RECOVERY_DIR"

// recoveryAddrPrefix starts the line on which a child announces its
// address.
const recoveryAddrPrefix = "lixto-recovery-addr "

// TestRecoveryChild is the child half: it only runs when re-executed
// by TestCrashRecoveryDifferential with the environment set. It serves
// until killed.
func TestRecoveryChild(t *testing.T) {
	dir := os.Getenv(recoveryChildEnv)
	if dir == "" {
		t.Skip("helper process for TestCrashRecoveryDifferential")
	}
	store, err := resultlog.Open(dir, resultlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Addr:                 "127.0.0.1:0",
		AllowDynamic:         true,
		ResultStore:          store,
		MaxCompilesPerMinute: -1,
		Logf:                 func(string, ...any) {},
	})
	if _, err := s.Restore(); err != nil {
		t.Fatal(err)
	}
	go s.Run(context.Background())
	select {
	case <-s.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("child never became ready")
	}
	fmt.Println(recoveryAddrPrefix + s.Addr())
	select {} // run until SIGKILLed by the parent
}

// recoveryChild manages one child server process.
type recoveryChild struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once the process has been waited for
	mu     sync.Mutex
	out    strings.Builder
}

func (c *recoveryChild) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// startRecoveryChild starts a child over dir and waits for the address
// it prints once it serves.
func startRecoveryChild(t *testing.T, dir string) *recoveryChild {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &recoveryChild{exited: make(chan struct{})}
	c.cmd = exec.Command(exe, "-test.run=TestRecoveryChild$")
	c.cmd.Env = append(os.Environ(), recoveryChildEnv+"="+dir)
	pr, pw := io.Pipe()
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.cmd.Wait()
		pw.Close()
		close(c.exited)
	}()
	t.Cleanup(c.kill)
	addr := make(chan string, 1)
	go func() {
		defer close(addr)
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, recoveryAddrPrefix); ok {
				addr <- a
			}
			c.mu.Lock()
			c.out.WriteString(line + "\n")
			c.mu.Unlock()
		}
	}()
	select {
	case a, ok := <-addr:
		if ok {
			c.base = "http://" + a
			return c
		}
	case <-time.After(15 * time.Second):
	}
	t.Fatalf("child server never came up; output:\n%s", c.output())
	return nil
}

// kill SIGKILLs the child — no signal handler, no flush, no shutdown.
func (c *recoveryChild) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

func TestCrashRecoveryDifferential(t *testing.T) {
	if os.Getenv(recoveryChildEnv) != "" {
		t.Skip("child process")
	}
	dir := t.TempDir()
	sink := newHookSink(t)
	restart := func(c *recoveryChild) *recoveryChild {
		c.kill()
		return startRecoveryChild(t, dir)
	}
	// extract delivers a new page to a wrapper and checks the version
	// it was acknowledged at.
	extract := func(base, name string, version int) {
		t.Helper()
		page := strings.ReplaceAll(v1Page, "Foundations of Databases", fmt.Sprintf("Edition %d", version))
		code, body, hdr := do(t, "POST", base+"/v1/wrappers/"+name+"/extract", map[string]any{"html": page})
		if code != 200 {
			t.Fatalf("extract %s #%d: %d %s", name, version, code, body)
		}
		if got := hdr.Get("Lixto-Version"); got != fmt.Sprint(version) {
			t.Fatalf("extract %s: Lixto-Version %q, want %d", name, got, version)
		}
	}

	// --- Process 1: a small fleet with live traffic. ---
	child := startRecoveryChild(t, dir)
	for _, name := range []string{"crash", "fleet2"} {
		code, body, _ := do(t, "POST", child.base+"/v1/wrappers",
			map[string]any{"name": name, "program": v1Wrapper, "html": v1Page, "auxiliary": []string{"page"}})
		if code != 201 {
			t.Fatalf("create %s: %d %s\nchild output:\n%s", name, code, body, child.output())
		}
	}
	if code, body, _ := do(t, "POST", child.base+"/v1/wrappers/crash/webhooks",
		map[string]any{"url": sink.ts.URL, "since": 0}); code != 201 {
		t.Fatalf("create webhook: %d %s", code, body)
	}
	// Three more extractions per wrapper: versions 2..4 (registration
	// delivered version 1). Every acknowledged response is durable.
	for i := 2; i <= 4; i++ {
		for _, name := range []string{"crash", "fleet2"} {
			extract(child.base, name, i)
		}
	}
	// Capture the observable read state. These reads also guarantee the
	// journal is drained to the WAL before we pull the plug.
	type wrapperState struct{ latest, etag, history, results string }
	capture := func(base string) map[string]wrapperState {
		states := map[string]wrapperState{}
		for _, name := range []string{"crash", "fleet2"} {
			code, latest, hdr := do(t, "GET", base+"/"+name, nil)
			if code != 200 {
				t.Fatalf("GET /%s: %d", name, code)
			}
			_, history, _ := do(t, "GET", base+"/"+name+"/history?since=0", nil)
			_, results, _ := do(t, "GET", base+"/v1/wrappers/"+name+"/results?since=0", nil)
			states[name] = wrapperState{latest: latest, etag: hdr.Get("ETag"), history: history, results: results}
		}
		return states
	}
	before := capture(child.base)
	// All four versions must reach the sink, and the durable cursor must
	// record them, before the first crash (the acknowledged-state
	// boundary).
	sink.waitFor(t, "pre-crash deliveries", func(rs []hookReceipt) bool { return len(rs) >= 4 })
	hooksPath := filepath.Join(dir, "crash", "webhooks.json")
	waitCursorFile(t, hooksPath, 4)

	// --- Kill 1, at the acknowledged boundary: byte-identical reads,
	// resumed cursors. ---
	child = restart(child)
	after := capture(child.base)
	for _, name := range []string{"crash", "fleet2"} {
		b, a := before[name], after[name]
		if a.latest != b.latest {
			t.Errorf("%s latest diverged:\n--- before ---\n%s\n--- after ---\n%s", name, b.latest, a.latest)
		}
		if a.etag != b.etag {
			t.Errorf("%s ETag diverged: %q -> %q", name, b.etag, a.etag)
		}
		if a.history != b.history {
			t.Errorf("%s history diverged:\n--- before ---\n%s\n--- after ---\n%s", name, b.history, a.history)
		}
		if a.results != b.results {
			t.Errorf("%s results diverged:\n--- before ---\n%s\n--- after ---\n%s", name, b.results, a.results)
		}
		// The pre-crash ETag still answers 304 on the restarted server.
		if code, _, _ := do(t, "GET", child.base+"/"+name, nil, "If-None-Match", b.etag); code != 304 {
			t.Errorf("%s conditional GET with pre-crash ETag = %d, want 304", name, code)
		}
	}
	if w := hookInfoOf(t, child.base+"/v1/wrappers/crash/webhooks/h1"); w.URL != sink.ts.URL || w.Cursor < 4 {
		t.Fatalf("restored webhook: %+v", w)
	}

	// --- Kill 2, with a delivery in flight: the sink holds the POST of
	// version 5 open, so the cursor file cannot reach the head. ---
	sink.setStalled(true)
	extract(child.base, "crash", 5)
	extract(child.base, "crash", 6)
	sink.waitStalled(t)
	if c := cursorFile(t, hooksPath); c >= 6 {
		t.Fatalf("cursor file at %d before the in-flight kill, want < 6", c)
	}
	child.kill()
	sink.setStalled(false)
	child = startRecoveryChild(t, dir)

	// --- Kill 3, wherever the catch-up from the durable cursor has got
	// to. ---
	extract(child.base, "crash", 7)
	child = restart(child)

	// --- Process 4: the sequence continues and every version arrives. ---
	extract(child.base, "crash", 8)
	const last = 8
	got := sink.waitFor(t, "every version delivered", func(rs []hookReceipt) bool {
		seen := map[uint64]bool{}
		for _, r := range rs {
			seen[r.version] = true
		}
		return len(seen) == last
	})
	// At least once, and in order on each connection: a process posts
	// over connections of its own, so a regression on one is a
	// regression within one process.
	lastOf := map[string]uint64{}
	for _, r := range got {
		if r.version < 1 || r.version > last {
			t.Fatalf("delivered version %d outside 1..%d: %+v", r.version, last, got)
		}
		if r.version < lastOf[r.remote] {
			t.Fatalf("connection %s delivered version %d after %d: %+v", r.remote, r.version, lastOf[r.remote], got)
		}
		lastOf[r.remote] = r.version
	}
}

// cursorFile reads the webhook sidecar's one cursor.
func cursorFile(t *testing.T, path string) uint64 {
	t.Helper()
	var metas []hookMeta
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &metas)
	}
	if err != nil || len(metas) != 1 {
		t.Fatalf("webhook sidecar %s: %v %+v", path, err, metas)
	}
	return metas[0].Cursor
}

// waitCursorFile polls the webhook sidecar until its cursor reaches
// want — the durable at-least-once boundary the first kill cuts at. It
// polls because the file is written by another process, on that
// process's debounce.
func waitCursorFile(t *testing.T, path string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var metas []hookMeta
		if data, err := os.ReadFile(path); err == nil {
			if json.Unmarshal(data, &metas) == nil && len(metas) == 1 && metas[0].Cursor >= want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook cursor never persisted to %d: %+v", want, metas)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
