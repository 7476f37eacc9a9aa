package server

import (
	"net/http/httptest"
	"testing"
)

// TestWantsJSON pins content negotiation on Accept: the higher qvalue
// wins between application/json and the XML types, a tie goes to
// whichever is listed first, and XML is the default.
func TestWantsJSON(t *testing.T) {
	for _, tc := range []struct {
		accept string
		json   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", true},
		{"application/xml", false},
		{"text/xml", false},
		{"application/json, application/xml", true},
		{"application/xml, application/json", false},
		{"text/xml, application/json", false},
		{"application/json;q=0, application/xml", false},
		{"application/json;q=0", false},
		{"application/json;q=0.0", false},
		{"application/json;Q=0.000", false},
		{"application/xml;q=0.5, application/json", true},
		{"application/json;q=0.9, application/xml", false},
		{"application/json;q=0.9, text/xml;q=0.8", true},
		{"application/xml;q=0.8, application/json;q=0.8", false},
		{"application/json;q=0.8, application/xml;q=0.8", true},
		{"application/xml;q=0, application/json;q=0.1", true},
		{"APPLICATION/JSON", true},
		{"application/json; charset=utf-8; q=0.7, application/xml;q=0.6", true},
		{"application/json;q=2, application/xml", false},   // malformed: skipped
		{"application/json;q=x", false},                    // malformed: skipped
		{"application/jsonx, application/json-seq", false}, // not JSON
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		if got := wantsJSON(r); got != tc.json {
			t.Errorf("Accept %q: wantsJSON = %v, want %v", tc.accept, got, tc.json)
		}
	}
}

// TestAcceptsGzip pins Accept-Encoding: gzip is served when listed
// with a qvalue above 0, whatever the spelling of the q parameter and
// the number of decimals of the qvalue.
func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		ae   string
		gzip bool
	}{
		{"", false},
		{"gzip", true},
		{"GZip", true},
		{"deflate, gzip", true},
		{"gzip;q=1.0, identity;q=0.5", true},
		{"gzip;q=0.001", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.000", false},
		{"gzip;Q=0", false},
		{"gzip ; q = 0", false},
		{"identity, gzip;q=0", false},
		{"br, deflate", false},
		{"x-gzip", false},
		{"gzip;q=bad", false}, // malformed: skipped
	} {
		r := httptest.NewRequest("GET", "/", nil)
		if tc.ae != "" {
			r.Header.Set("Accept-Encoding", tc.ae)
		}
		if got := acceptsGzip(r); got != tc.gzip {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", tc.ae, got, tc.gzip)
		}
	}
}
