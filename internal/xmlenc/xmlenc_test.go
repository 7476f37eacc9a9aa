package xmlenc

import (
	"strings"
	"testing"
)

func sample() *Node {
	root := NewElement("catalog")
	root.SetAttr("version", "1")
	b := root.AppendElement("book")
	b.AppendTextElement("title", "Foundations of <Databases>")
	b.AppendTextElement("price", "$ 10 & up")
	root.AppendElement("empty")
	return root
}

func TestMarshalEscaping(t *testing.T) {
	s := Marshal(sample())
	if !strings.Contains(s, "Foundations of &lt;Databases&gt;") {
		t.Errorf("text not escaped: %s", s)
	}
	if !strings.Contains(s, "$ 10 &amp; up") {
		t.Errorf("ampersand not escaped: %s", s)
	}
	if !strings.Contains(s, "<empty/>") {
		t.Errorf("empty element not self-closed: %s", s)
	}
	if !strings.Contains(s, `version="1"`) {
		t.Errorf("attribute lost: %s", s)
	}
}

func TestUnmarshalRoundTrip(t *testing.T) {
	s := Marshal(sample())
	n, err := Unmarshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if Marshal(n) != s {
		t.Errorf("round trip differs:\n%s\n%s", s, Marshal(n))
	}
}

// Every character the serializer escapes must come back from Unmarshal
// as itself, in text and in attribute values, through all three
// encoders (they share one serializer body).
func TestEscapedRoundTrip(t *testing.T) {
	const text, attr = `R&D <dept> said "a > b" & left`, `x?y=1&z="<2>"`
	doc := NewElement("doc").SetAttr("href", attr)
	doc.AppendTextElement("plain", "nothing to escape")
	doc.AppendTextElement("t", text).AppendElement("only").SetAttr("k", attr)
	enc := NewEncoder()
	for name, src := range map[string]string{
		"Marshal": Marshal(doc), "MarshalIndent": MarshalIndent(doc), "Encoder": string(enc.MarshalIndentBytes(doc)),
	} {
		n, err := Unmarshal(src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, src)
		}
		if got := n.FirstChild("t").Text; got != text {
			t.Errorf("%s: text = %q, want %q", name, got, text)
		}
		if got, _ := n.Attr("href"); got != attr {
			t.Errorf("%s: root attribute = %q, want %q", name, got, attr)
		}
		if got, _ := n.FirstChild("only").Attr("k"); got != attr {
			t.Errorf("%s: child attribute = %q, want %q", name, got, attr)
		}
		if Marshal(n) != Marshal(doc) {
			t.Errorf("%s: round trip differs:\n%s\n%s", name, Marshal(doc), Marshal(n))
		}
	}
}

func TestUnmarshalIndentedRoundTrip(t *testing.T) {
	s := MarshalIndent(sample())
	n, err := Unmarshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if n.FirstChild("book") == nil || n.FirstChild("book").FirstChild("title") == nil {
		t.Fatalf("structure lost: %s", Marshal(n))
	}
	if got := n.FirstChild("book").FirstChild("title").Text; got != "Foundations of <Databases>" {
		t.Errorf("title = %q", got)
	}
}

// NITF-style dotted element names (<date.issue>, <body.head>) must
// survive an Unmarshal round trip byte-exactly: the WAL restore path
// re-parses stored result XML with Unmarshal, and the HTML tokenizer's
// name alphabet used to split "date.issue" into a tag plus a stray
// attribute.
func TestUnmarshalDottedNamesRoundTrip(t *testing.T) {
	doc := NewElement("nitf")
	head := doc.AppendElement("head")
	dd := head.AppendElement("docdata")
	di := dd.AppendElement("date.issue")
	di.SetAttr("norm", "2004-06-08")
	bh := doc.AppendElement("body.head")
	bh.AppendTextElement("hedline", "Globex & <friends>")
	for _, s := range []string{Marshal(doc), MarshalIndent(doc)} {
		n, err := Unmarshal(s)
		if err != nil {
			t.Fatalf("Unmarshal(%q): %v", s, err)
		}
		if got := Marshal(n); got != Marshal(doc) {
			t.Errorf("round trip differs:\n%s\n%s", Marshal(doc), got)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	for _, s := range []string{
		"", "just text", "<a><b></a>", "<a>", "</a>", "<a/><b/>",
	} {
		if _, err := Unmarshal(s); err == nil {
			t.Errorf("Unmarshal(%q) succeeded", s)
		}
	}
}

func TestFindAndChildren(t *testing.T) {
	root := NewElement("r")
	for i := 0; i < 3; i++ {
		c := root.AppendElement("item")
		c.AppendTextElement("v", "x")
	}
	root.AppendElement("other")
	if got := len(root.Find("item")); got != 3 {
		t.Errorf("Find = %d", got)
	}
	if got := len(root.ChildrenNamed("item")); got != 3 {
		t.Errorf("ChildrenNamed = %d", got)
	}
	if root.FirstChild("other") == nil || root.FirstChild("missing") != nil {
		t.Error("FirstChild wrong")
	}
	if got := len(root.Find("v")); got != 3 {
		t.Errorf("deep Find = %d", got)
	}
}

func TestTextContent(t *testing.T) {
	n, err := Unmarshal("<a>one<b>two</b>three</a>")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.TextContent(); got != "onetwothree" {
		t.Errorf("TextContent = %q", got)
	}
}

func TestSetAttrReplaces(t *testing.T) {
	n := NewElement("x")
	n.SetAttr("k", "1")
	n.SetAttr("k", "2")
	if v, _ := n.Attr("k"); v != "2" || len(n.Attrs) != 1 {
		t.Errorf("attrs = %v", n.Attrs)
	}
}

func TestMarshalIndentBytesEquivalence(t *testing.T) {
	n := sample()
	if got, want := string(MarshalIndentBytes(n)), MarshalIndent(n); got != want {
		t.Errorf("MarshalIndentBytes diverges from MarshalIndent:\n%q\nvs\n%q", got, want)
	}
}

// A carriage return in text or in an attribute value must come back
// from Unmarshal as itself: written literally, XML end-of-line
// normalization would turn "\r\n" and a lone "\r" into "\n". The JSON
// rendering of the round-tripped tree is then the original's.
func TestCarriageReturnRoundTrip(t *testing.T) {
	doc := NewElement("doc").SetAttr("a", "p\rq")
	doc.AppendTextElement("t", "x\ry\r\nz")
	doc.AppendElement("e").SetAttr("b", "\r\n\r").AppendTextElement("f", "lone\r")
	for name, src := range map[string]string{"Marshal": Marshal(doc), "MarshalIndent": MarshalIndent(doc)} {
		if strings.Contains(src, "\r") {
			t.Errorf("%s writes a literal carriage return: %q", name, src)
		}
		back, err := Unmarshal(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := Marshal(back); got != Marshal(doc) {
			t.Errorf("%s round trip lost a carriage return:\n got %q\nwant %q", name, got, Marshal(doc))
		}
		want, _ := MarshalJSONIndent(doc)
		if got, _ := MarshalJSONIndent(back); string(got) != string(want) {
			t.Errorf("%s round trip changes the JSON:\n got %s\nwant %s", name, got, want)
		}
	}
}
