package xmlenc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// jsonNode and the encoding/json calls below are the JSON writer as it
// was before it appended straight from the tree: the oracle the writer
// must match byte for byte.
type jsonNode struct {
	Name     string            `json:"name,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Text     string            `json:"text,omitempty"`
	Children []*jsonNode       `json:"children,omitempty"`
}

func toJSONNode(n *Node) *jsonNode {
	j := &jsonNode{Name: n.Name, Text: n.Text}
	if len(n.Attrs) > 0 {
		j.Attrs = make(map[string]string, len(n.Attrs))
		for _, a := range n.Attrs {
			j.Attrs[a.Name] = a.Value
		}
	}
	for _, c := range n.Children {
		j.Children = append(j.Children, toJSONNode(c))
	}
	return j
}

// checkJSONIdentical compares all three writers with the oracle.
func checkJSONIdentical(t *testing.T, docs ...*Node) {
	t.Helper()
	for _, d := range docs {
		want, err := json.Marshal(toJSONNode(d))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := MarshalJSON(d); !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON differs:\n got %s\nwant %s", got, want)
		}
		want, _ = json.MarshalIndent(toJSONNode(d), "", "  ")
		if got, _ := MarshalJSONIndent(d); !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSONIndent differs:\n got %s\nwant %s", got, want)
		}
	}
	list := make([]*jsonNode, len(docs))
	for i, d := range docs {
		list[i] = toJSONNode(d)
	}
	want, _ := json.MarshalIndent(list, "", "  ")
	if got, _ := MarshalJSONList(docs); !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSONList differs:\n got %s\nwant %s", got, want)
	}
}

// treeFromBytes builds a small tree from arbitrary bytes: each step's
// first byte picks an operation, the next byte a string length, and the
// string follows. Names, attribute keys and values and text all draw
// from the input, so every escaping case, empty fields, duplicate
// attributes and deep nesting are reachable.
func treeFromBytes(data []byte) *Node {
	root := NewElement("r")
	stack := []*Node{root}
	next := func() string {
		if len(data) == 0 {
			return ""
		}
		n := int(data[0]) % 12
		data = data[1:]
		n = min(n, len(data))
		s := string(data[:n])
		data = data[n:]
		return s
	}
	for len(data) > 0 {
		op := data[0] % 6
		data = data[1:]
		top := stack[len(stack)-1]
		switch op {
		case 0:
			c := NewElement(next())
			top.Append(c)
			if len(stack) < 8 {
				stack = append(stack, c)
			}
		case 1:
			top.Attrs = append(top.Attrs, Attr{next(), next()}) // duplicates allowed
		case 2:
			top.Text = next()
		case 3:
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		case 4:
			top.Append(NewText(next()))
		case 5:
			top.Name = next()
		}
	}
	return root
}

func TestJSONIdenticalRandom(t *testing.T) {
	alphabet := []string{"a", "b", "<", ">", "&", `"`, `\`, "\r", "\n", "\t", "\x00", "\x1f", "\x7f",
		" ", " ", "é", "\xff", "\xe2\x80", "日本", " "}
	rng := rand.New(rand.NewSource(7))
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(5); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := &Node{}
		if rng.Intn(6) > 0 {
			n.Name = str()
		}
		for k := rng.Intn(4); k > 0; k-- {
			n.Attrs = append(n.Attrs, Attr{str(), str()})
		}
		if rng.Intn(2) == 0 {
			n.Text = str()
		}
		if depth < 4 {
			for k := rng.Intn(4); k > 0; k-- {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		checkJSONIdentical(t, build(0), build(2))
	}
	checkJSONIdentical(t)                       // empty list
	checkJSONIdentical(t, &Node{}, NewText("")) // empty objects
	many := NewElement("m")
	for i := 20; i > 0; i-- {
		many.SetAttr(fmt.Sprintf("k%02d", i), "v")
	}
	many.Attrs = append(many.Attrs, Attr{"k05", "last"})
	checkJSONIdentical(t, many) // more attributes than the stack array
}

func FuzzJSONIdentical(f *testing.F) {
	f.Add([]byte("\x00\x03abc\x01\x01k\x02v<\x02\x04te&t\x04\x02\r\n\x03\x01\x01k\x01\x01k"))
	f.Add([]byte("\x05\x00\x02\x06\xe2\x80\xa8\xe2\x80\xa9\x04\x03\xff\xfe\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkJSONIdentical(t, treeFromBytes(data))
	})
}
func TestMarshalJSON(t *testing.T) {
	doc := NewElement("alerts")
	doc.SetAttr("source", "wrap-flights")
	a := doc.AppendElement("alert")
	a.AppendTextElement("flight", "OS105")
	a.AppendTextElement("status", "delayed <30min>")

	data, err := MarshalJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name     string            `json:"name"`
		Attrs    map[string]string `json:"attrs"`
		Children []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
				Text string `json:"text"`
			} `json:"children"`
		} `json:"children"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid JSON %s: %v", data, err)
	}
	if got.Name != "alerts" || got.Attrs["source"] != "wrap-flights" {
		t.Fatalf("root: %s", data)
	}
	if len(got.Children) != 1 || len(got.Children[0].Children) != 2 {
		t.Fatalf("children: %s", data)
	}
	if got.Children[0].Children[1].Text != "delayed <30min>" {
		t.Fatalf("text round-trip: %s", data)
	}
}

func TestMarshalJSONOmitsEmpty(t *testing.T) {
	data, err := MarshalJSON(NewElement("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"name":"empty"}` {
		t.Fatalf("empty element = %s", data)
	}
}

func TestMarshalJSONList(t *testing.T) {
	docs := []*Node{NewElement("a"), NewElement("b")}
	data, err := MarshalJSONList(docs)
	if err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("list = %s", data)
	}
}
