// Package btree provides the in-memory B+tree used by the row-store
// baseline's secondary indexes. The paper's 10–50× column-vs-row claim
// (§II.B.7) is measured against "row-organized tables with secondary
// indexing", so the baseline needs a real index: this tree supports
// duplicate keys, point lookups and ordered range scans over row IDs.
package btree

import (
	"sort"

	"dashdb/internal/types"
)

// degree is the maximum number of keys per node; chosen so a node fits a
// couple of cache lines of keys.
const degree = 64

// item is one key with the row IDs of every row carrying that key.
type item struct {
	key  types.Value
	rids []int64
}

// node is a B+tree node. Leaves hold items; internal nodes hold separator
// keys and children. Leaves are chained for range scans.
type node struct {
	items    []item
	children []*node
	next     *node // leaf chain
	leaf     bool
}

// Tree is a B+tree mapping types.Value keys to sets of row IDs.
// It is not safe for concurrent mutation; the row store serializes writes.
type Tree struct {
	root *node
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// search returns the index of the first item in n with key >= k.
func search(n *node, k types.Value) int {
	return sort.Search(len(n.items), func(i int) bool {
		return types.Compare(n.items[i].key, k) >= 0
	})
}

// Insert adds rid under key. Duplicate (key, rid) pairs are stored once.
func (t *Tree) Insert(key types.Value, rid int64) {
	if len(t.root.items) >= degree {
		old := t.root
		t.root = &node{children: []*node{old}}
		t.splitChild(t.root, 0)
	}
	t.insertNonFull(t.root, key, rid)
}

func (t *Tree) insertNonFull(n *node, key types.Value, rid int64) {
	for {
		i := search(n, key)
		if n.leaf {
			if i < len(n.items) && types.Compare(n.items[i].key, key) == 0 {
				for _, r := range n.items[i].rids {
					if r == rid {
						return
					}
				}
				n.items[i].rids = append(n.items[i].rids, rid)
				return
			}
			n.items = append(n.items, item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item{key: key, rids: []int64{rid}}
			return
		}
		// Internal: descend; separator keys equal to the search key go
		// right so duplicates cluster in one leaf.
		if i < len(n.items) && types.Compare(n.items[i].key, key) == 0 {
			i++
		}
		if len(n.children[i].items) >= degree {
			t.splitChild(n, i)
			if types.Compare(key, n.items[i].key) >= 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// splitChild splits the full child at index i of parent p.
func (t *Tree) splitChild(p *node, i int) {
	child := p.children[i]
	mid := len(child.items) / 2
	sep := child.items[mid].key

	right := &node{leaf: child.leaf}
	if child.leaf {
		// B+tree leaves keep all items; the separator is copied up.
		right.items = append(right.items, child.items[mid:]...)
		child.items = child.items[:mid:mid]
		right.next = child.next
		child.next = right
	} else {
		right.items = append(right.items, child.items[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.items = child.items[:mid:mid]
		child.children = child.children[: mid+1 : mid+1]
	}

	p.items = append(p.items, item{})
	copy(p.items[i+1:], p.items[i:])
	p.items[i] = item{key: sep}
	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

// findLeaf descends to the leaf that would contain key.
func (t *Tree) findLeaf(key types.Value) *node {
	n := t.root
	for !n.leaf {
		i := search(n, key)
		if i < len(n.items) && types.Compare(n.items[i].key, key) == 0 {
			i++
		}
		n = n.children[i]
	}
	return n
}

// Get returns the row IDs stored under key, or nil.
func (t *Tree) Get(key types.Value) []int64 {
	n := t.findLeaf(key)
	i := search(n, key)
	if i < len(n.items) && types.Compare(n.items[i].key, key) == 0 {
		return n.items[i].rids
	}
	return nil
}

// Delete removes the (key, rid) pair, reporting whether it was present.
// Nodes are not rebalanced on delete — the row store is append-mostly and
// index rebuilds reclaim space — but emptied items are removed so scans
// stay correct.
func (t *Tree) Delete(key types.Value, rid int64) bool {
	n := t.findLeaf(key)
	i := search(n, key)
	if i >= len(n.items) || types.Compare(n.items[i].key, key) != 0 {
		return false
	}
	rids := n.items[i].rids
	for j, r := range rids {
		if r == rid {
			n.items[i].rids = append(rids[:j], rids[j+1:]...)
			if len(n.items[i].rids) == 0 {
				n.items = append(n.items[:i], n.items[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Range calls fn for every (key, rid) with lo <= key <= hi in ascending
// key order; nil bounds are unbounded. fn returning false stops the scan.
func (t *Tree) Range(lo, hi *types.Value, fn func(key types.Value, rid int64) bool) {
	var n *node
	if lo != nil {
		n = t.findLeaf(*lo)
	} else {
		n = t.root
		for !n.leaf {
			n = n.children[0]
		}
	}
	for ; n != nil; n = n.next {
		for _, it := range n.items {
			if lo != nil && types.Compare(it.key, *lo) < 0 {
				continue
			}
			if hi != nil && types.Compare(it.key, *hi) > 0 {
				return
			}
			for _, rid := range it.rids {
				if !fn(it.key, rid) {
					return
				}
			}
		}
	}
}
