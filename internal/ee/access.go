package ee

import (
	"fmt"
	"sort"
)

// AccessSet is a table-granularity read/write footprint: the tables a
// statement (or a stored procedure) may read and may write. Names are
// lower-case, sorted, and deduplicated, so the per-statement coverage
// check is an allocation-free binary search.
//
// Window tables always appear in Writes, even for pure SELECTs: a
// maintained-aggregate read lazily rescans a dirty MIN/MAX
// accumulator, mutating the table, so a procedure that reads a window
// must declare it as written.
type AccessSet struct {
	Reads  []string
	Writes []string
}

// NewAccessSet builds a normalized access set from raw table-name
// lists (any case, duplicates allowed).
func NewAccessSet(reads, writes []string) *AccessSet {
	return &AccessSet{Reads: normalizeNames(reads), Writes: normalizeNames(writes)}
}

// normalizeNames lower-cases, sorts, and dedups a name list.
func normalizeNames(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, lowerName(n))
	}
	sort.Strings(out)
	w := 0
	for i, n := range out {
		if i == 0 || n != out[w-1] {
			out[w] = n
			w++
		}
	}
	return out[:w]
}

// containsSorted reports whether a sorted string slice contains x
// (binary search).
//
//sstore:nomalloc
func containsSorted(set []string, x string) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if set[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == x
}

// Covers reports whether this (declared) set covers every access of b:
// b's writes within a's writes, b's reads within a's reads or writes.
//
//sstore:nomalloc
func (a *AccessSet) Covers(b *AccessSet) bool {
	for _, w := range b.Writes {
		if !containsSorted(a.Writes, w) {
			return false
		}
	}
	for _, r := range b.Reads {
		if !containsSorted(a.Reads, r) && !containsSorted(a.Writes, r) {
			return false
		}
	}
	return true
}

// Check validates a statement's compiled access against this declared
// set; stmt == nil means the planner could not bound the statement's
// accesses (DDL), which a declared procedure may not run. A violation
// aborts the transaction before the statement touches any table, so a
// wrong declaration fails loudly.
func (a *AccessSet) Check(stmt *AccessSet) error {
	if stmt == nil {
		return fmt.Errorf("ee: statement access unknown; not allowed in a procedure with a declared access set")
	}
	if !a.Covers(stmt) {
		return fmt.Errorf("ee: statement accesses reads=%v writes=%v outside the procedure's declared set reads=%v writes=%v",
			stmt.Reads, stmt.Writes, a.Reads, a.Writes)
	}
	return nil
}
