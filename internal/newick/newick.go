// Package newick parses and serializes phylogenetic trees in the Newick
// format, the interchange format used by TreeBASE, PHYLIP and virtually
// every phylogenetics tool.
//
// The grammar accepted is the standard one:
//
//	tree    ::= subtree ";"
//	subtree ::= leaf | "(" subtree ("," subtree)* ")" [label] [":" length]
//	leaf    ::= [label] [":" length]
//	label   ::= unquoted | "'" quoted "'"
//
// Comments in square brackets and all whitespace between tokens are
// skipped. Quoted labels may contain any character, with ” standing for
// a single quote. Branch lengths are validated as numbers and then
// discarded: the cousin-pair algorithms of the paper operate on tree
// topology and labels only.
package newick

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"treemine/internal/tree"
)

// ErrSyntax is wrapped by all parse errors; use errors.Is to detect them.
var ErrSyntax = errors.New("newick: syntax error")

// ParseError describes a syntax error at a byte offset of the input.
type ParseError struct {
	Offset int    // byte offset where the error was detected
	Msg    string // human-readable description
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("newick: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Unwrap makes errors.Is(err, ErrSyntax) succeed for ParseErrors.
func (e *ParseError) Unwrap() error { return ErrSyntax }

type parser struct {
	s   string
	pos int
	b   *tree.Builder
}

// Parse parses a single Newick tree from s. Input after the terminating
// semicolon (other than whitespace and comments) is an error.
func Parse(s string) (*tree.Tree, error) {
	p := &parser{s: s, b: tree.NewBuilder()}
	if err := p.parseTree(); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errorf("trailing input after ';'")
	}
	return p.b.Build()
}

// ParseAll parses a sequence of Newick trees from r, one per terminating
// semicolon. Trees may span or share lines. It returns the trees parsed
// before the first error, along with that error (nil on clean EOF).
// ParseAll is the materializing convenience over Scanner — use Scanner
// directly to mine streams that should not live in memory at once.
func ParseAll(r io.Reader) ([]*tree.Tree, error) {
	sc := NewScanner(r)
	var trees []*tree.Tree
	for {
		t, err := sc.Next()
		if err == io.EOF {
			return trees, nil
		}
		if err != nil {
			return trees, err
		}
		trees = append(trees, t)
	}
}

func isBlank(s string) bool {
	for _, c := range s {
		switch c {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	return true
}

func (p *parser) errorf(format string, args ...any) error {
	return &ParseError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case '[':
			depth := 0
			start := p.pos
			for ; p.pos < len(p.s); p.pos++ {
				if p.s[p.pos] == '[' {
					depth++
				} else if p.s[p.pos] == ']' {
					depth--
					if depth == 0 {
						break
					}
				}
			}
			if depth != 0 {
				p.pos = start
				return // unterminated comment surfaces as a later error
			}
			p.pos++
		default:
			return
		}
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *parser) parseTree() error {
	p.skipSpace()
	if err := p.parseSubtree(tree.None); err != nil {
		return err
	}
	p.skipSpace()
	if p.peek() != ';' {
		return p.errorf("expected ';', got %q", string(p.peek()))
	}
	p.pos++
	return nil
}

func (p *parser) parseSubtree(parent tree.NodeID) error {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		// Internal node: create it first so children can attach, then
		// read its optional label afterwards. Since labels are stored on
		// nodes at creation, parse children into a temporary list? The
		// Builder assigns labels at creation, so instead we parse the
		// whole group into a staging structure.
		return p.parseInternal(parent)
	}
	label, labeled, err := p.parseLabel()
	if err != nil {
		return err
	}
	if err := p.parseLength(); err != nil {
		return err
	}
	p.addNode(parent, label, labeled)
	return nil
}

// staged is a parse-time node; the tree is rebuilt from staged nodes once
// each internal node's trailing label has been read.
type staged struct {
	label    string
	labeled  bool
	children []*staged
}

func (p *parser) parseInternal(parent tree.NodeID) error {
	st, err := p.parseStagedGroup()
	if err != nil {
		return err
	}
	p.emit(st, parent)
	return nil
}

// parseStagedGroup parses "(...)label:len" with p.pos just past '('.
func (p *parser) parseStagedGroup() (*staged, error) {
	node := &staged{}
	for {
		child, err := p.parseStagedSubtree()
		if err != nil {
			return nil, err
		}
		node.children = append(node.children, child)
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
		case ')':
			p.pos++
			label, labeled, err := p.parseLabel()
			if err != nil {
				return nil, err
			}
			if err := p.parseLength(); err != nil {
				return nil, err
			}
			node.label, node.labeled = label, labeled
			return node, nil
		case 0:
			return nil, p.errorf("unexpected end of input inside '('")
		default:
			return nil, p.errorf("expected ',' or ')', got %q", string(p.peek()))
		}
	}
}

func (p *parser) parseStagedSubtree() (*staged, error) {
	p.skipSpace()
	if p.peek() == '(' {
		p.pos++
		return p.parseStagedGroup()
	}
	label, labeled, err := p.parseLabel()
	if err != nil {
		return nil, err
	}
	if err := p.parseLength(); err != nil {
		return nil, err
	}
	return &staged{label: label, labeled: labeled}, nil
}

func (p *parser) emit(st *staged, parent tree.NodeID) {
	id := p.addNode(parent, st.label, st.labeled)
	for _, c := range st.children {
		p.emit(c, id)
	}
}

func (p *parser) addNode(parent tree.NodeID, label string, labeled bool) tree.NodeID {
	if parent == tree.None {
		if labeled {
			return p.b.Root(label)
		}
		return p.b.RootUnlabeled()
	}
	if labeled {
		return p.b.Child(parent, label)
	}
	return p.b.ChildUnlabeled(parent)
}

// parseLabel reads an optional label. It returns labeled=false when no
// label is present.
func (p *parser) parseLabel() (string, bool, error) {
	p.skipSpace()
	if p.peek() == '\'' {
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.s) {
				return "", false, p.errorf("unterminated quoted label")
			}
			c := p.s[p.pos]
			if c == '\'' {
				if p.pos+1 < len(p.s) && p.s[p.pos+1] == '\'' {
					b.WriteByte('\'')
					p.pos += 2
					continue
				}
				p.pos++
				return b.String(), true, nil
			}
			b.WriteByte(c)
			p.pos++
		}
	}
	start := p.pos
	for p.pos < len(p.s) && !isDelim(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", false, nil
	}
	return p.s[start:p.pos], true, nil
}

func isDelim(c byte) bool {
	switch c {
	case '(', ')', ',', ':', ';', '[', ']', '\'', ' ', '\t', '\n', '\r':
		return true
	}
	return false
}

// parseLength reads an optional ":<number>" branch length, validating the
// number and discarding it.
func (p *parser) parseLength() error {
	p.skipSpace()
	if p.peek() != ':' {
		return nil
	}
	p.pos++
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) && !isDelim(p.s[p.pos]) {
		p.pos++
	}
	if _, err := strconv.ParseFloat(p.s[start:p.pos], 64); err != nil {
		p.pos = start
		return p.errorf("invalid branch length %q", p.s[start:p.pos])
	}
	return nil
}

// Write serializes t as a Newick string terminated by ';'. Labels
// containing delimiter characters are quoted; sibling order follows node
// IDs, so Parse(Write(t)) is isomorphic to t.
func Write(t *tree.Tree) string {
	var b strings.Builder
	writeNode(t, t.Root(), &b)
	b.WriteByte(';')
	return b.String()
}

func writeNode(t *tree.Tree, n tree.NodeID, b *strings.Builder) {
	if kids := t.Children(n); len(kids) > 0 {
		b.WriteByte('(')
		for i, k := range kids {
			if i > 0 {
				b.WriteByte(',')
			}
			writeNode(t, k, b)
		}
		b.WriteByte(')')
	}
	if l, ok := t.Label(n); ok {
		writeLabel(l, b)
	}
}

func writeLabel(l string, b *strings.Builder) {
	if l != "" && !strings.ContainsAny(l, "()[]',;: \t\n\r") {
		b.WriteString(l)
		return
	}
	b.WriteByte('\'')
	b.WriteString(strings.ReplaceAll(l, "'", "''"))
	b.WriteByte('\'')
}
