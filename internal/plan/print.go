package plan

import (
	"fmt"
	"sort"
	"strings"
)

// Format renders the plan as an indented tree, one operator per line,
// annotated with delivered properties and estimated rows. A Spool
// subtree consumed by several parents is printed in full at its first
// reference and elided as "(shared, see above)" afterwards — matching
// how the paper draws Fig. 8(b).
func Format(root *Node) string {
	var b strings.Builder
	seen := map[SpoolID]bool{}
	var walk func(n *Node, prefix string, last bool, top bool)
	walk = func(n *Node, prefix string, last bool, top bool) {
		connector, childPrefix := "", ""
		if !top {
			if last {
				connector = prefix + "└── "
				childPrefix = prefix + "    "
			} else {
				connector = prefix + "├── "
				childPrefix = prefix + "│   "
			}
		}
		line := n.Op.String()
		if n.IsSpool() {
			k := n.SpoolID()
			if seen[k] {
				fmt.Fprintf(&b, "%s%s (shared, see above)\n", connector, line)
				return
			}
			seen[k] = true
		}
		fmt.Fprintf(&b, "%s%s  [%s, rows=%d, cost=%.1f]\n",
			connector, line, n.Dlvd, n.Rel.Rows, n.OpCost)
		for i, c := range n.Children {
			walk(c, childPrefix, i == len(n.Children)-1, false)
		}
	}
	walk(root, "", true, true)
	return b.String()
}

// Shape renders only the operator structure (no costs or stats), for
// golden plan-shape tests: each line is the operator's String with
// two-space indentation per depth, shared spools elided as in Format.
func Shape(root *Node) string {
	var b strings.Builder
	seen := map[SpoolID]bool{}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.IsSpool() {
			k := n.SpoolID()
			if seen[k] {
				fmt.Fprintf(&b, "%s%s (shared)\n", indent, n.Op)
				return
			}
			seen[k] = true
		}
		fmt.Fprintf(&b, "%s%s\n", indent, n.Op)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return b.String()
}

// DOT renders the plan DAG in Graphviz dot syntax. Distinct nodes are
// emitted once; shared spools therefore appear as real DAG nodes with
// several incoming edges.
func DOT(root *Node, title string) string {
	nodes := topoOrder(root)
	id := map[*Node]int{}
	for i, n := range nodes {
		id[n] = i
	}
	var b strings.Builder
	b.WriteString("digraph plan {\n")
	if title != "" {
		fmt.Fprintf(&b, "  label=%q;\n  labelloc=t;\n", title)
	}
	b.WriteString("  rankdir=BT;\n  node [shape=box, fontname=\"monospace\"];\n")
	for _, n := range nodes {
		attrs := ""
		if n.IsSpool() {
			attrs = ", style=filled, fillcolor=lightyellow"
		}
		if kindIsExchange(n) {
			attrs = ", style=filled, fillcolor=lightgray"
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%s\"%s];\n",
			id[n], escape(n.Op.String()), escape(n.Dlvd.String()), attrs)
	}
	// Deterministic edge order.
	type edge struct{ from, to int }
	var edges []edge
	for _, n := range nodes {
		for _, c := range n.Children {
			edges = append(edges, edge{id[c], id[n]})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.from, e.to)
	}
	b.WriteString("}\n")
	return b.String()
}

func kindIsExchange(n *Node) bool {
	return n.Op.Kind().String() == "Repartition"
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
