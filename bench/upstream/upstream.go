// Package upstream is the benchmark's deterministic "web": catalogue
// pages whose HTML is a pure function of (seed, spec, url, version).
//
// A page is Sections <div class="section"> blocks of Rows <tr> rows
// (the E24/E26 catalogue markup). Version 0 is the initial page;
// version v rewrites one contiguous window of Window sections,
// rotating through the page, so consecutive versions differ in
// Window/Sections of their nodes and nowhere else. Every rewritten
// row carries "@<version>" in its name cell, so a consumer holding
// only extracted output can tell which page version it came from.
//
// Site is the stateful walker over those versions: Next(url) advances
// one URL by one version and stamps the wall-clock instant, Freeze
// stops the advance (every Next then returns the current version
// again). Section fragments are cached and only the rewritten window
// is re-rendered, so producing a 180 KB page costs one concatenation.
package upstream

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dom"
)

// Spec is the shape of every page of a site.
type Spec struct {
	// Sections and Rows size the page: Sections blocks of Rows rows.
	Sections, Rows int
	// Window is how many sections each new version rewrites (0 = the
	// page never changes; >= Sections = every section every version).
	Window int
	// AllSale tags every row SALE (a wide output: every row is
	// extracted); otherwise each section has exactly one SALE row.
	AllSale bool
}

// Nodes is the number of DOM nodes htmlparse builds for one page:
// five per row (tr, two td, two texts), table and div per section,
// and the html/body pair.
func (s Spec) Nodes() int { return s.Sections*(5*s.Rows+2) + 2 }

// window reports the first section version v (>= 1) rewrites for url
// and how many it rewrites.
func (s Spec) window(seed uint64, url string, v int) (start, n int) {
	n = min(s.Window, s.Sections)
	if n <= 0 {
		return 0, 0
	}
	off := int(mix(seed, hashString(url), 0x5eed) % uint64(s.Sections))
	return (off + (v-1)*n) % s.Sections, n
}

// generations fills gen with, per section, the version that last
// rewrote it at page version v (0 = never rewritten).
func (s Spec) generations(seed uint64, url string, v int, gen []int) {
	clear(gen)
	_, n := s.window(seed, url, 1)
	if n == 0 {
		return
	}
	// Windows rotate contiguously, so the last ceil(S/n) versions
	// cover every section that was ever rewritten.
	span := (s.Sections + n - 1) / n
	for w := max(1, v-span+1); w <= v; w++ {
		start, _ := s.window(seed, url, w)
		for i := 0; i < n; i++ {
			gen[(start+i)%s.Sections] = w
		}
	}
}

// Page renders version v of url from scratch.
func Page(seed uint64, spec Spec, url string, v int) string {
	gen := make([]int, spec.Sections)
	spec.generations(seed, url, v, gen)
	var sb strings.Builder
	sb.WriteString(pageHead)
	for s, g := range gen {
		sb.WriteString(section(seed, spec, url, s, g))
	}
	sb.WriteString(pageTail)
	return sb.String()
}

const (
	pageHead = "<html><body>"
	pageTail = "</body></html>"
)

// section renders one section block as last rewritten at version g.
func section(seed uint64, spec Spec, url string, s, g int) string {
	key := mix(seed, hashString(url), uint64(s)<<32|uint64(g))
	sale := int(key % uint64(spec.Rows))
	var sb strings.Builder
	sb.Grow(spec.Rows*80 + 48)
	sb.WriteString(`<div class="section"><table>`)
	for r := 0; r < spec.Rows; r++ {
		h := mix(key, uint64(r), 0xca7a)
		sb.WriteString(`<tr><td class="name">`)
		if spec.AllSale || r == sale {
			sb.WriteString("SALE ")
		}
		sb.WriteString("item ")
		sb.WriteString(strconv.Itoa(s))
		sb.WriteByte('.')
		sb.WriteString(strconv.Itoa(r))
		sb.WriteString(" @")
		sb.WriteString(strconv.Itoa(g))
		sb.WriteString(`</td><td class="price">$ `)
		sb.WriteString(strconv.Itoa(10 + int(h%90)))
		sb.WriteByte('.')
		cents := int(h >> 8 % 100)
		sb.WriteByte(byte('0' + cents/10))
		sb.WriteByte(byte('0' + cents%10))
		sb.WriteString(`</td></tr>`)
	}
	sb.WriteString(`</table></div>`)
	return sb.String()
}

// StampOf returns the largest "@<version>" stamp in data (extracted
// output or page HTML), or -1 when there is none: the page version
// the data was produced from.
func StampOf(data []byte) int {
	best := -1
	for i := 0; i < len(data); i++ {
		if data[i] != '@' {
			continue
		}
		v, digits := 0, 0
		for j := i + 1; j < len(data) && data[j] >= '0' && data[j] <= '9'; j++ {
			v = v*10 + int(data[j]-'0')
			digits++
		}
		if digits > 0 && v > best {
			best = v
		}
		i += digits
	}
	return best
}

// mix is a splitmix64-style combiner: cheap, stateless, and stable
// across Go versions (unlike math/rand streams), so a seed pins the
// page bytes forever.
func mix(a, b, c uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9 ^ (c+0x94d049bb133111eb)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Site walks a set of URLs through their versions.
type Site struct {
	seed uint64
	spec Spec

	frozen atomic.Bool
	pages  map[string]*page // fixed at NewSite
}

// page is one URL's current state. Its own mutex serializes Next calls
// on one URL while different URLs render concurrently.
type page struct {
	mu      sync.Mutex
	version int
	frags   []string    // current section fragments
	stamps  []time.Time // stamps[v-1] = when Next first produced version v
}

// NewSite returns a site serving the given URLs, all at version 0.
func NewSite(seed uint64, spec Spec, urls ...string) *Site {
	s := &Site{seed: seed, spec: spec, pages: make(map[string]*page, len(urls))}
	for _, url := range urls {
		p := &page{frags: make([]string, spec.Sections)}
		for i := range p.frags {
			p.frags[i] = section(seed, spec, url, i, 0)
		}
		s.pages[url] = p
	}
	return s
}

// Freeze stops every URL at its current version; Thaw resumes.
func (s *Site) Freeze() { s.frozen.Store(true) }

// Thaw undoes Freeze.
func (s *Site) Thaw() { s.frozen.Store(false) }

// Fetched is one Next result.
type Fetched struct {
	HTML    string
	Version int
}

// Next advances url by one version (unless frozen) and returns the
// page. The advance is stamped with the instant Next was entered.
func (s *Site) Next(url string) (Fetched, error) {
	now := time.Now()
	p := s.pages[url]
	if p == nil {
		return Fetched{}, fmt.Errorf("upstream: no page at %q", url)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, n := s.spec.window(s.seed, url, 1)
	if !s.frozen.Load() && n > 0 {
		p.version++
		p.stamps = append(p.stamps, now)
		start, _ := s.spec.window(s.seed, url, p.version)
		for i := 0; i < n; i++ {
			sec := (start + i) % s.spec.Sections
			p.frags[sec] = section(s.seed, s.spec, url, sec, p.version)
		}
	}
	var sb strings.Builder
	size := len(pageHead) + len(pageTail)
	for _, f := range p.frags {
		size += len(f)
	}
	sb.Grow(size)
	sb.WriteString(pageHead)
	for _, f := range p.frags {
		sb.WriteString(f)
	}
	sb.WriteString(pageTail)
	return Fetched{HTML: sb.String(), Version: p.version}, nil
}

// Version returns url's current version (-1 for an unknown URL).
func (s *Site) Version(url string) int {
	p := s.pages[url]
	if p == nil {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.version
}

// Stamp returns the instant at which Next first produced version v of
// url; ok is false for version 0, unknown URLs and unseen versions.
func (s *Site) Stamp(url string, v int) (t time.Time, ok bool) {
	p := s.pages[url]
	if p == nil {
		return time.Time{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v < 1 || v > len(p.stamps) {
		return time.Time{}, false
	}
	return p.stamps[v-1], true
}

// Stamps returns a copy of url's advance instants (index v-1 holds
// version v).
func (s *Site) Stamps(url string) []time.Time {
	p := s.pages[url]
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Time(nil), p.stamps...)
}

// DirtyRatio measures the share of cur's nodes that sit in a
// top-level block (a child of <body>) whose subtree hash differs from
// the block at the same position in prev. Both trees must be warmed.
func DirtyRatio(prev, cur *dom.Tree) float64 {
	pb, cb := bodyOf(prev), bodyOf(cur)
	if pb == dom.Nil || cb == dom.Nil {
		return 1
	}
	dirty := 0
	p := prev.FirstChild(pb)
	for c := cur.FirstChild(cb); c != dom.Nil; c = cur.NextSibling(c) {
		if p == dom.Nil || prev.SubtreeHash(p) != cur.SubtreeHash(c) {
			dirty += cur.SubtreeSize(c)
		}
		if p != dom.Nil {
			p = prev.NextSibling(p)
		}
	}
	return float64(dirty) / float64(cur.Size())
}

func bodyOf(t *dom.Tree) dom.NodeID {
	for n := t.FirstChild(t.Root()); n != dom.Nil; n = t.NextSibling(n) {
		if t.Label(n) == "body" {
			return n
		}
	}
	return dom.Nil
}
