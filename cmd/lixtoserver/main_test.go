package main

import (
	"flag"
	"io"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/resultlog"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("lixtoserver", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestFlagSurface pins the operator surface: one flag per policy.
func TestFlagSurface(t *testing.T) {
	fs := newFlagSet()
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"addr", "allow-dynamic", "data-dir", "history", "interval", "pprof", "steps", "wal-fsync"}
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags = %v, want %v", names, want)
	}
}

func TestFlagDefaults(t *testing.T) {
	o, err := parseFlags(newFlagSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := options{addr: ":8080", interval: 2 * time.Second, walFsync: resultlog.FsyncBatch}
	if o != want {
		t.Fatalf("defaults = %+v, want %+v", o, want)
	}
}

// TestFlagValidation: bad values are refused up front, whether or not
// the flag they tune is in use (-wal-fsync without -data-dir).
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-wal-fsync", "bogus"},
		{"-history", "-1"},
		{"-interval", "0s"},
		{"-shards", "8"},
	} {
		if _, err := parseFlags(newFlagSet(), args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	o, err := parseFlags(newFlagSet(), []string{"-wal-fsync", "always", "-data-dir", "d"})
	if err != nil || o.walFsync != resultlog.FsyncAlways || o.dataDir != "d" {
		t.Fatalf("valid flags: %+v, %v", o, err)
	}
}
