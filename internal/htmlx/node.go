// Package htmlx is a small, dependency-free HTML parser sufficient for web
// table extraction: it tokenizes markup, builds a DOM tree with the
// auto-closing rules that matter for tables and lists, and offers the
// traversal helpers the extractor needs (descendant search, inner text,
// root paths). It is intentionally not a full HTML5 parser; it is the
// substrate standing in for the production crawler's parser.
package htmlx

import "strings"

// NodeType discriminates DOM node kinds.
type NodeType int

// Node kinds produced by Parse.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// Node is a DOM tree node. Element nodes carry Tag and Attrs; text and
// comment nodes carry Text.
type Node struct {
	Type     NodeType
	Tag      string // lowercase element name
	Attrs    map[string]string
	Text     string
	Parent   *Node
	Children []*Node
}

// appendChild links c under n.
func (n *Node) appendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// Attr returns the value of attribute k ("" when absent). Keys are
// lowercase.
func (n *Node) Attr(k string) string {
	if n.Attrs == nil {
		return ""
	}
	return n.Attrs[k]
}

// Find returns all descendant elements (depth-first, document order) whose
// tag equals tag.
func (n *Node) Find(tag string) []*Node {
	var out []*Node
	n.walk(func(c *Node) bool {
		if c.Type == ElementNode && c.Tag == tag {
			out = append(out, c)
		}
		return true
	})
	return out
}

// FindFirst returns the first descendant element with the given tag, or nil.
func (n *Node) FindFirst(tag string) *Node {
	var found *Node
	n.walk(func(c *Node) bool {
		if found == nil && c.Type == ElementNode && c.Tag == tag {
			found = c
			return false
		}
		return found == nil
	})
	return found
}

// walk visits every descendant of n (not n itself) in document order. If f
// returns false the subtree below the visited node is skipped.
func (n *Node) walk(f func(*Node) bool) {
	for _, c := range n.Children {
		if f(c) {
			c.walk(f)
		}
	}
}

// Walk visits n and every descendant in document order.
func (n *Node) Walk(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// InnerText concatenates all descendant text, separating block fragments by
// single spaces and collapsing whitespace.
func (n *Node) InnerText() string {
	var b strings.Builder
	n.Walk(func(c *Node) {
		if c.Type == TextNode {
			t := strings.TrimSpace(c.Text)
			if t != "" {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(t)
			}
		}
	})
	return b.String()
}

// PathToRoot returns the chain of ancestors from n (inclusive) to the tree
// root (inclusive).
func (n *Node) PathToRoot() []*Node {
	var path []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		path = append(path, cur)
	}
	return path
}

// ChildIndex returns the index of c within n.Children, or -1.
func (n *Node) ChildIndex(c *Node) int {
	for i, x := range n.Children {
		if x == c {
			return i
		}
	}
	return -1
}
