package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/bench/trace"
	"repro/bench/upstream"
	"repro/internal/dom"
	"repro/internal/elog"
	"repro/internal/htmlparse"
	"repro/internal/xmlenc"
	"repro/pkg/lixto"
)

// siteFetcher is the upstream web the server sees: every Fetch advances
// the page one version, renders it and parses it, so fetch and parse
// are on the tick's clock exactly as with a real HTTP source.
type siteFetcher struct {
	site *upstream.Site
	// rec, when set, records the two stages as spans (traced runs are
	// single-goroutine; end-to-end runs leave it nil).
	rec *trace.Recorder
}

func (f *siteFetcher) Fetch(url string) (*dom.Tree, error) {
	id := f.rec.Begin("upstream.render")
	pg, err := f.site.Next(url)
	f.rec.End(id)
	if err != nil {
		return nil, err
	}
	id = f.rec.Begin("htmlparse.parse")
	tree := htmlparse.Parse(pg.HTML)
	f.rec.End(id)
	return tree, nil
}

// fnv64a is the hash the server derives strong ETags from; the
// benchmark uses the same one so a payload hash, a reference hash and
// an ETag can all be compared.
type fnv64a uint64

const fnvOffset fnv64a = 14695981039346656037

func (h fnv64a) write(b []byte) fnv64a {
	for _, c := range b {
		h = (h ^ fnv64a(c)) * 1099511628211
	}
	return h
}

func hashBytes(b []byte) uint64 { return uint64(fnvOffset.write(b)) }

// etagOf is the strong ETag the server publishes for XML bytes.
func etagOf(xml []byte) string { return fmt.Sprintf("\"%016x-x\"", hashBytes(xml)) }

// reference recomputes results with none of the incremental machinery:
// a fresh parse of the page rendered from (seed, url, version), the
// interpreted non-incremental evaluator, the stateless transform and
// the stateless encoder. Results are memoized per (url, version).
type reference struct {
	seed uint64
	spec upstream.Spec

	mu    sync.Mutex
	progs map[string]*lixto.Wrapper
	xml   map[refKey][]byte
}

type refKey struct {
	url     string
	version int
}

func newReference(seed uint64, spec upstream.Spec) *reference {
	return &reference{seed: seed, spec: spec, progs: map[string]*lixto.Wrapper{}, xml: map[refKey][]byte{}}
}

// bytesFor returns the reference XML of url at version.
func (r *reference) bytesFor(url string, version int) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := refKey{url, version}
	if b, ok := r.xml[key]; ok {
		return b, nil
	}
	w := r.progs[url]
	if w == nil {
		var err error
		w, err = lixto.Compile(program(url), lixto.WithRoot(designRoot), lixto.WithAuxiliary(designAux...))
		if err != nil {
			return nil, err
		}
		r.progs[url] = w
	}
	tree := htmlparse.Parse(upstream.Page(r.seed, r.spec, url, version))
	ev := elog.NewEvaluator(elog.MapFetcher{url: tree})
	ev.Incremental = false
	base, err := ev.Run(w.Program())
	if err != nil {
		return nil, fmt.Errorf("reference %s@%d: %w", url, version, err)
	}
	b := xmlenc.MarshalIndentBytes(w.Design().Transform(base))
	r.xml[key] = b
	return b, nil
}

// payloadHash is the hash an SSE consumer computes over a frame's data
// lines: the server frames the XML with its trailing newlines trimmed.
func payloadHash(xml []byte) uint64 { return hashBytes(bytes.TrimRight(xml, "\n")) }
