package profiler

import "nimage/internal/ir"

// MethodTable assigns stable indices to compiled methods. Indices are
// alphabetical by signature, so the table is identical for any two builds
// with the same reachable-method set, and trace files reference methods
// compactly.
type MethodTable struct {
	// Methods in index order.
	Methods []*ir.Method
	// Index maps a method to its table index.
	Index map[*ir.Method]int
}

// NewMethodTable builds a table over the given methods.
func NewMethodTable(methods []*ir.Method) *MethodTable {
	sorted := make([]*ir.Method, len(methods))
	copy(sorted, methods)
	ir.SortBySignature(sorted)
	t := &MethodTable{Methods: sorted, Index: make(map[*ir.Method]int, len(sorted))}
	for i, m := range sorted {
		t.Index[m] = i
	}
	return t
}

// Signature returns the signature of the method with the given index, or
// "" if out of range.
func (t *MethodTable) Signature(idx int) string {
	if idx < 0 || idx >= len(t.Methods) {
		return ""
	}
	return t.Methods[idx].Signature()
}

// Method returns the method with the given index, or nil.
func (t *MethodTable) Method(idx int) *ir.Method {
	if idx < 0 || idx >= len(t.Methods) {
		return nil
	}
	return t.Methods[idx]
}

// Numberings computes the path numbering of every table method (used by
// heap-instrumented builds).
func (t *MethodTable) Numberings(maxPaths uint64) map[*ir.Method]*Numbering {
	out := make(map[*ir.Method]*Numbering, len(t.Methods))
	for _, m := range t.Methods {
		out[m] = ComputeNumbering(m, maxPaths)
	}
	return out
}
