package web

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/htmlparse"
)

// ---------------------------------------------------------------------
// eBay-style auction listings (Figure 5).

// AuctionItem is one offered item.
type AuctionItem struct {
	Description string
	Price       string // e.g. "$ 12.50"
	Currency    string
	Bids        int
}

// AuctionSite simulates an eBay-like marketplace with paginated listing
// pages.
type AuctionSite struct {
	mu       sync.Mutex
	Items    []AuctionItem
	PageSize int
	// Noise adds navigation clutter and ads, for the robustness
	// experiments.
	Noise bool
}

// NewAuctionSite generates n items deterministically from seed.
func NewAuctionSite(seed int64, n int) *AuctionSite {
	r := newRng(seed)
	adjectives := []string{"Vintage", "Antique", "Rare", "Mint", "Used", "Boxed", "Signed", "Classic"}
	nouns := []string{"Camera", "Clock", "Bicycle", "Guitar", "Radio", "Watch", "Lamp", "Typewriter", "Globe", "Atlas"}
	currencies := []string{"$", "Euro", "£"}
	s := &AuctionSite{PageSize: 25}
	for i := 0; i < n; i++ {
		cur := r.pick(currencies)
		s.Items = append(s.Items, AuctionItem{
			Description: fmt.Sprintf("%s %s #%d", r.pick(adjectives), r.pick(nouns), i+1),
			Price:       fmt.Sprintf("%s %s", cur, r.price(5, 500)),
			Currency:    cur,
			Bids:        r.intn(30),
		})
	}
	return s
}

// Register installs the site's pages under host (e.g. "www.ebay.com") on w.
func (s *AuctionSite) Register(w *Web, host string) {
	pages := (len(s.Items) + s.PageSize - 1) / s.PageSize
	if pages == 0 {
		pages = 1
	}
	for p := 0; p < pages; p++ {
		p := p
		url := host + "/"
		if p > 0 {
			url = fmt.Sprintf("%s/page%d.html", host, p)
		}
		w.SetPage(url, func() string { return s.renderPage(host, p, pages) })
	}
}

func (s *AuctionSite) renderPage(host string, page, pages int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString("<html><head><title>Auctions</title></head><body>")
	if s.Noise {
		b.WriteString(`<div class="nav"><a href="/">home</a> | <a href="/sell.html">sell</a> | <a href="/help.html">help</a></div>`)
		b.WriteString(`<p>Sponsored: <a href="ad.html">Buy more stuff!</a></p>`)
	}
	b.WriteString(`<table class="hdr"><tr><td><b>item</b></td><td>price</td><td>bids</td></tr></table>`)
	lo := page * s.PageSize
	hi := lo + s.PageSize
	if hi > len(s.Items) {
		hi = len(s.Items)
	}
	for _, it := range s.Items[lo:hi] {
		b.WriteString(`<table class="item"><tr>`)
		fmt.Fprintf(&b, `<td><a href="item.html">%s</a></td>`, htmlparse.EscapeText(it.Description))
		fmt.Fprintf(&b, `<td>%s</td>`, it.Price)
		fmt.Fprintf(&b, `<td>%d bids</td>`, it.Bids)
		b.WriteString(`</tr></table>`)
	}
	b.WriteString("<hr>")
	if page+1 < pages {
		fmt.Fprintf(&b, `<p><a class="next" href="page%d.html">next page</a></p>`, page+1)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// ---------------------------------------------------------------------
// Book bestsellers (the Amazon books example of Figure 4).

// Book is one bestseller entry.
type Book struct {
	Rank   int
	Title  string
	Author string
	Price  string
}

// BookSite simulates a bookshop bestseller list.
type BookSite struct {
	mu    sync.Mutex
	Books []Book
}

// NewBookSite generates n books deterministically.
func NewBookSite(seed int64, n int) *BookSite {
	r := newRng(seed)
	firsts := []string{"Ada", "Kurt", "Alonzo", "Alan", "Emmy", "Grace", "John", "Julia", "Edsger", "Barbara"}
	lasts := []string{"Lovelace", "Goedel", "Church", "Turing", "Noether", "Hopper", "McCarthy", "Robinson", "Dijkstra", "Liskov"}
	topics := []string{"Databases", "Logic", "Trees", "Automata", "Datalog", "The Web", "Wrappers", "Queries", "Complexity", "Monads"}
	s := &BookSite{}
	for i := 0; i < n; i++ {
		s.Books = append(s.Books, Book{
			Rank:   i + 1,
			Title:  fmt.Sprintf("%s for Everyone, Vol. %d", r.pick(topics), 1+r.intn(4)),
			Author: r.pick(firsts) + " " + r.pick(lasts),
			Price:  "$ " + r.price(9, 80),
		})
	}
	return s
}

// SetPrice changes a book's price (for the change-monitoring pipeline).
func (s *BookSite) SetPrice(rank int, price string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.Books {
		if s.Books[i].Rank == rank {
			s.Books[i].Price = price
		}
	}
}

// Register installs the bestseller page at host+"/bestsellers.html".
func (s *BookSite) Register(w *Web, host string) {
	w.SetPage(host+"/bestsellers.html", s.Render)
}

// Render produces the bestseller page.
func (s *BookSite) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString(`<html><head><title>Bestsellers</title></head><body>`)
	b.WriteString(`<h1>Book Bestsellers</h1><table class="books">`)
	b.WriteString(`<tr><th>rank</th><th>title</th><th>author</th><th>price</th></tr>`)
	for _, bk := range s.Books {
		fmt.Fprintf(&b, `<tr class="book"><td>%d</td><td class="title"><a href="book%d.html">%s</a></td><td class="author">%s</td><td class="price">%s</td></tr>`,
			bk.Rank, bk.Rank, htmlparse.EscapeText(bk.Title), htmlparse.EscapeText(bk.Author), bk.Price)
	}
	b.WriteString(`</table><hr><p>updated daily</p></body></html>`)
	return b.String()
}

// ---------------------------------------------------------------------
// Now Playing (Section 6.1): radio playlists, music charts, lyrics.

// RadioSite simulates a radio station page showing the current song and
// recent playlist. Step advances simulated time (songs rotate).
type RadioSite struct {
	mu    sync.Mutex
	Name  string
	Songs []Song
	step  int
}

// Song is a title/artist pair.
type Song struct{ Title, Artist string }

// SongPool generates a deterministic pool of songs.
func SongPool(seed int64, n int) []Song {
	r := newRng(seed)
	adjs := []string{"Blue", "Electric", "Silent", "Golden", "Midnight", "Broken", "Distant", "Crystal"}
	nouns := []string{"River", "Heart", "City", "Sky", "Train", "Mirror", "Garden", "Signal"}
	bands := []string{"The Wrappers", "Monadic", "Datalog Five", "Tree Automata", "Infinite Loop", "The Fixpoints", "Stratified", "Core XPath"}
	var out []Song
	for i := 0; i < n; i++ {
		out = append(out, Song{
			Title:  r.pick(adjs) + " " + r.pick(nouns),
			Artist: r.pick(bands),
		})
	}
	return out
}

// NewRadioSite creates a station with a rotation drawn from pool.
func NewRadioSite(name string, pool []Song, offset int) *RadioSite {
	return &RadioSite{Name: name, Songs: pool, step: offset}
}

// Advance rotates to the next song ("periodic intervals ranging from a
// few seconds").
func (s *RadioSite) Advance() {
	s.mu.Lock()
	s.step++
	s.mu.Unlock()
}

// Current returns the song on air.
func (s *RadioSite) Current() Song {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Songs[s.step%len(s.Songs)]
}

// Register installs the station page at host+"/playlist.html".
func (s *RadioSite) Register(w *Web, host string) {
	w.SetPage(host+"/playlist.html", s.Render)
}

// Render produces the playlist page.
func (s *RadioSite) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.Songs[s.step%len(s.Songs)]
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><title>%s</title></head><body>`, s.Name)
	fmt.Fprintf(&b, `<h1>%s</h1>`, s.Name)
	fmt.Fprintf(&b, `<div class="nowplaying">Now playing: <span class="title">%s</span> by <span class="artist">%s</span></div>`,
		htmlparse.EscapeText(cur.Title), htmlparse.EscapeText(cur.Artist))
	b.WriteString(`<h2>Recently played</h2><ul class="recent">`)
	for i := 1; i <= 5; i++ {
		sg := s.Songs[(s.step+len(s.Songs)*8-i)%len(s.Songs)]
		fmt.Fprintf(&b, `<li><span class="title">%s</span> - <span class="artist">%s</span></li>`, htmlparse.EscapeText(sg.Title), htmlparse.EscapeText(sg.Artist))
	}
	b.WriteString(`</ul><p><a href="stream.html">live stream</a></p></body></html>`)
	return b.String()
}

// ChartSite simulates a music chart (top-N list).
type ChartSite struct {
	Name    string
	Entries []Song
}

// NewChartSite ranks a permutation of the pool.
func NewChartSite(name string, pool []Song, seed int64, n int) *ChartSite {
	r := newRng(seed)
	perm := make([]Song, len(pool))
	copy(perm, pool)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if n > len(perm) {
		n = len(perm)
	}
	return &ChartSite{Name: name, Entries: perm[:n]}
}

// Register installs the chart page at host+"/top.html".
func (s *ChartSite) Register(w *Web, host string) {
	w.SetPage(host+"/top.html", s.Render)
}

// Render produces the chart page.
func (s *ChartSite) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><title>%s</title></head><body><h1>%s</h1><table class="chart">`, s.Name, s.Name)
	b.WriteString(`<tr><th>rank</th><th>song</th><th>artist</th></tr>`)
	for i, e := range s.Entries {
		fmt.Fprintf(&b, `<tr><td class="rank">%d</td><td class="song">%s</td><td class="artist">%s</td></tr>`, i+1, htmlparse.EscapeText(e.Title), htmlparse.EscapeText(e.Artist))
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

// LyricsSite serves one lyrics page per song.
type LyricsSite struct{ Pool []Song }

// Register installs lyric pages at host+"/lyrics<i>.html" plus an index.
func (s *LyricsSite) Register(w *Web, host string) {
	var idx strings.Builder
	idx.WriteString(`<html><body><h1>Lyrics index</h1><ul>`)
	for i, sg := range s.Pool {
		i, sg := i, sg
		url := fmt.Sprintf("%s/lyrics%d.html", host, i)
		w.SetPage(url, func() string {
			var b strings.Builder
			fmt.Fprintf(&b, `<html><body><h1 class="song">%s</h1><h2 class="artist">%s</h2><pre class="lyrics">La la la %s, oh %s...</pre></body></html>`,
				htmlparse.EscapeText(sg.Title), htmlparse.EscapeText(sg.Artist), htmlparse.EscapeText(sg.Title), htmlparse.EscapeText(sg.Artist))
			return b.String()
		})
		fmt.Fprintf(&idx, `<li><a href="lyrics%d.html">%s</a></li>`, i, htmlparse.EscapeText(sg.Title))
	}
	idx.WriteString(`</ul></body></html>`)
	w.SetStatic(host+"/index.html", idx.String())
}

// ---------------------------------------------------------------------
// Flight schedules (Section 6.2).

// Flight is one timetable row.
type Flight struct {
	Number string
	From   string
	To     string
	Sched  string
	Status string // "on time", "delayed 20 min", "cancelled", "boarding"
}

// FlightSite simulates an airport information system whose statuses
// change over time.
type FlightSite struct {
	mu      sync.Mutex
	Flights []Flight
	seed    int64
	step    int
}

// NewFlightSite generates n flights.
func NewFlightSite(seed int64, n int) *FlightSite {
	r := newRng(seed)
	cities := []string{"Vienna", "Paris", "London", "Frankfurt", "Zurich", "Milan", "Madrid", "Prague"}
	s := &FlightSite{seed: seed}
	for i := 0; i < n; i++ {
		from := r.pick(cities)
		to := r.pick(cities)
		for to == from {
			to = r.pick(cities)
		}
		s.Flights = append(s.Flights, Flight{
			Number: fmt.Sprintf("OS%03d", 100+i),
			From:   from,
			To:     to,
			Sched:  fmt.Sprintf("%02d:%02d", 6+r.intn(16), 5*r.intn(12)),
			Status: "on time",
		})
	}
	return s
}

// Advance mutates some statuses deterministically.
func (s *FlightSite) Advance() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.step++
	r := newRng(s.seed + int64(s.step))
	statuses := []string{"on time", "delayed 20 min", "delayed 45 min", "boarding", "cancelled"}
	for i := 0; i < len(s.Flights)/4+1; i++ {
		s.Flights[r.intn(len(s.Flights))].Status = r.pick(statuses)
	}
}

// Status returns a flight's current status.
func (s *FlightSite) Status(number string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.Flights {
		if f.Number == number {
			return f.Status
		}
	}
	return ""
}

// Register installs the timetable at host+"/departures.html".
func (s *FlightSite) Register(w *Web, host string) {
	w.SetPage(host+"/departures.html", s.Render)
}

// Render produces the departures page.
func (s *FlightSite) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	b.WriteString(`<html><head><title>Departures</title></head><body><h1>Departures</h1><table class="flights">`)
	b.WriteString(`<tr><th>flight</th><th>from</th><th>to</th><th>time</th><th>status</th></tr>`)
	for _, f := range s.Flights {
		fmt.Fprintf(&b, `<tr class="flight"><td class="no">%s</td><td class="from">%s</td><td class="to">%s</td><td class="time">%s</td><td class="status">%s</td></tr>`,
			f.Number, f.From, f.To, f.Sched, f.Status)
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

// ---------------------------------------------------------------------
// Press / financial news (Section 6.3).

// Article is one news item.
type Article struct {
	Headline string
	Date     string
	Body     string
	Ticker   string
}

// NewsSite simulates a press site; Publish appends articles.
type NewsSite struct {
	mu       sync.Mutex
	Name     string
	Articles []Article
}

// NewNewsSite generates n initial articles.
func NewNewsSite(name string, seed int64, n int) *NewsSite {
	s := &NewsSite{Name: name}
	r := newRng(seed)
	for i := 0; i < n; i++ {
		s.Articles = append(s.Articles, genArticle(r, i))
	}
	return s
}

func genArticle(r *rng, i int) Article {
	companies := []string{"ACME", "Globex", "Initech", "Umbrella", "Hooli", "Stark"}
	verbs := []string{"beats expectations", "announces merger", "issues profit warning", "expands to Asia", "recalls product", "wins contract"}
	tick := r.pick(companies)
	return Article{
		Headline: fmt.Sprintf("%s %s", tick, r.pick(verbs)),
		Date:     fmt.Sprintf("2004-06-%02d", 1+r.intn(28)),
		Body:     fmt.Sprintf("Today, %s made headlines (story %d). Analysts are watching closely.", tick, i+1),
		Ticker:   tick,
	}
}

// Publish appends a fresh article.
func (s *NewsSite) Publish(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := newRng(seed)
	s.Articles = append(s.Articles, genArticle(r, len(s.Articles)))
}

// Register installs the front page at host+"/news.html".
func (s *NewsSite) Register(w *Web, host string) {
	w.SetPage(host+"/news.html", s.Render)
}

// Render produces the news front page.
func (s *NewsSite) Render() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><title>%s</title></head><body><h1>%s</h1>`, s.Name, s.Name)
	for _, a := range s.Articles {
		b.WriteString(`<div class="article">`)
		fmt.Fprintf(&b, `<h2 class="headline">%s</h2>`, htmlparse.EscapeText(a.Headline))
		fmt.Fprintf(&b, `<span class="date">%s</span>`, a.Date)
		fmt.Fprintf(&b, `<span class="ticker">%s</span>`, a.Ticker)
		fmt.Fprintf(&b, `<p class="body">%s</p>`, htmlparse.EscapeText(a.Body))
		b.WriteString(`</div>`)
	}
	b.WriteString(`</body></html>`)
	return b.String()
}

// QuoteSite serves stock quotes that drift over time.
type QuoteSite struct {
	mu     sync.Mutex
	quotes map[string]float64
	seed   int64
	step   int
}

// NewQuoteSite initializes quotes for the given tickers.
func NewQuoteSite(seed int64, tickers ...string) *QuoteSite {
	r := newRng(seed)
	q := &QuoteSite{quotes: map[string]float64{}, seed: seed}
	for _, t := range tickers {
		q.quotes[t] = 20 + float64(r.intn(20000))/100
	}
	return q
}

// Advance drifts the quotes.
func (q *QuoteSite) Advance() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.step++
	r := newRng(q.seed + int64(q.step))
	for t := range q.quotes {
		q.quotes[t] += float64(r.intn(200)-100) / 100
		if q.quotes[t] < 1 {
			q.quotes[t] = 1
		}
	}
}

// Register installs the quote board at host+"/quotes.html".
func (q *QuoteSite) Register(w *Web, host string) {
	w.SetPage(host+"/quotes.html", q.Render)
}

// Render produces the quote board.
func (q *QuoteSite) Render() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	tickers := make([]string, 0, len(q.quotes))
	for t := range q.quotes {
		tickers = append(tickers, t)
	}
	sortStrings(tickers)
	var b strings.Builder
	b.WriteString(`<html><body><h1>Quotes</h1><table class="quotes"><tr><th>ticker</th><th>price</th></tr>`)
	for _, t := range tickers {
		fmt.Fprintf(&b, `<tr class="quote"><td class="ticker">%s</td><td class="value">%.2f</td></tr>`, t, q.quotes[t])
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

// ---------------------------------------------------------------------
// Power trading (Section 6.7).

// PowerSite serves spot market prices for electric power plus the
// weather/water-level data the application integrates with.
type PowerSite struct {
	mu   sync.Mutex
	seed int64
	step int
}

// NewPowerSite returns a spot-price site.
func NewPowerSite(seed int64) *PowerSite { return &PowerSite{seed: seed} }

// Advance moves to the next trading interval.
func (p *PowerSite) Advance() {
	p.mu.Lock()
	p.step++
	p.mu.Unlock()
}

// Register installs spot.html and weather.html under host.
func (p *PowerSite) Register(w *Web, host string) {
	w.SetPage(host+"/spot.html", p.RenderSpot)
	w.SetPage(host+"/weather.html", p.RenderWeather)
}

// RenderSpot produces the hourly spot-price table.
func (p *PowerSite) RenderSpot() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := newRng(p.seed + int64(p.step))
	var b strings.Builder
	b.WriteString(`<html><body><h1>Spot Market</h1><table class="spot"><tr><th>hour</th><th>price</th></tr>`)
	for h := 0; h < 24; h++ {
		fmt.Fprintf(&b, `<tr class="hour"><td class="h">%02d:00</td><td class="eur">%d.%02d EUR</td></tr>`, h, 18+r.intn(40), r.intn(100))
	}
	b.WriteString(`</table></body></html>`)
	return b.String()
}

// RenderWeather produces the weather/water-level page.
func (p *PowerSite) RenderWeather() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := newRng(p.seed*7 + int64(p.step))
	conds := []string{"sunny", "cloudy", "rain", "storm", "snow"}
	var b strings.Builder
	b.WriteString(`<html><body><h1>Weather and Water</h1>`)
	fmt.Fprintf(&b, `<p class="forecast">Forecast: <span class="cond">%s</span>, <span class="temp">%d</span> degrees</p>`, r.pick(conds), r.intn(35))
	fmt.Fprintf(&b, `<p class="water">Danube level: <span class="level">%d</span> cm</p>`, 200+r.intn(400))
	b.WriteString(`</body></html>`)
	return b.String()
}

// ---------------------------------------------------------------------
// Viticulture portal sources (Section 6.4).

// VitiSite serves vine news and pesticide recommendations per region.
type VitiSite struct {
	Regions []string
}

// Register installs region pages under host.
func (s *VitiSite) Register(w *Web, host string) {
	for _, region := range s.Regions {
		region := region
		w.SetPage(fmt.Sprintf("%s/%s.html", host, strings.ToLower(region)), func() string {
			var b strings.Builder
			fmt.Fprintf(&b, `<html><body><h1>Viticulture: %s</h1>`, region)
			fmt.Fprintf(&b, `<div class="advice"><h2>Pest control</h2><ul><li class="pest">Peronospora: spray within 3 days</li><li class="pest">Oidium: monitor</li></ul></div>`)
			fmt.Fprintf(&b, `<div class="news"><h2>Vine news</h2><p class="item">Harvest in %s expected early.</p></div>`, region)
			b.WriteString(`</body></html>`)
			return b.String()
		})
	}
}

// ---------------------------------------------------------------------
// Automotive supplier portal (Section 6.5).

// PortalSite simulates a business portal with RFQs (requests for
// quotation) that suppliers must monitor.
type PortalSite struct {
	mu   sync.Mutex
	RFQs []string
}

// NewPortalSite seeds n RFQs.
func NewPortalSite(seed int64, n int) *PortalSite {
	r := newRng(seed)
	parts := []string{"brake disc", "headlight", "wiring loom", "dashboard", "gearbox mount", "door seal"}
	p := &PortalSite{}
	for i := 0; i < n; i++ {
		p.RFQs = append(p.RFQs, fmt.Sprintf("RFQ-%04d: %s, qty %d", 1000+i, r.pick(parts), 100*(1+r.intn(50))))
	}
	return p
}

// Post adds a new RFQ.
func (p *PortalSite) Post(rfq string) {
	p.mu.Lock()
	p.RFQs = append(p.RFQs, rfq)
	p.mu.Unlock()
}

// Register installs the RFQ list at host+"/rfq.html".
func (p *PortalSite) Register(w *Web, host string) {
	w.SetPage(host+"/rfq.html", func() string {
		p.mu.Lock()
		defer p.mu.Unlock()
		var b strings.Builder
		b.WriteString(`<html><body><h1>Open RFQs</h1><ol class="rfqs">`)
		for _, r := range p.RFQs {
			fmt.Fprintf(&b, `<li class="rfq">%s</li>`, htmlparse.EscapeText(r))
		}
		b.WriteString(`</ol></body></html>`)
		return b.String()
	})
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
