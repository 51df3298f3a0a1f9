package graal

import "nimage/internal/ir"

// CompilationUnit is a CU of the .text section: a root method plus every
// method transitively inlined into it (Sec. 2). The same method may be
// inlined into several CUs and still be compiled as its own CU root.
type CompilationUnit struct {
	// Root is the method the compilation started from; its signature names
	// the CU in ordering profiles.
	Root *ir.Method
	// Inlined lists the inlined methods (excluding the root) in inlining
	// decision order. A method can appear more than once if several call
	// sites inlined it.
	Inlined []*ir.Method
	// Members is the set of methods whose code is inside this CU.
	Members map[*ir.Method]bool
	// Size is the estimated compiled size in bytes, including probes.
	Size int
	// Constants lists the distinct string literals embedded in the CU's
	// compiled code together with the method whose code references them;
	// each surviving constant becomes a heap-snapshot root (Sec. 5.3).
	Constants []Constant
	// ScalarReplaced counts allocations removed by partial escape analysis
	// inside this CU.
	ScalarReplaced int
}

// Constant is a string literal embedded in compiled code.
type Constant struct {
	// Literal is the string value.
	Literal string
	// Source is the method whose bytecode contains the literal.
	Source *ir.Method
	// Folded marks constants that optimization removed from the code (and
	// hence from the heap snapshot) — e.g. constant-folded reads enabled by
	// inlining/PEA. Folding depends on the CU composition, so it differs
	// across builds with different inlining.
	Folded bool
}

// Signature returns the root-method signature that identifies the CU.
func (cu *CompilationUnit) Signature() string { return cu.Root.Signature() }

// inliner builds the CU for one root using a greedy, size-driven policy.
type inliner struct {
	cfg    Config
	instr  Instrumentation
	pgo    bool
	reach  *Reachability
	sizeOf func(*ir.Method) int
}

// effectiveSize returns the method's code size including the inflation its
// probes cause under the given instrumentation kind.
func effectiveSize(m *ir.Method, cfg Config, instr Instrumentation) int {
	s := m.CodeSize()
	switch instr {
	case InstrMethod:
		s += cfg.ProbeMethodEntry
	case InstrHeap:
		s += cfg.ProbePerBlock * len(m.Blocks)
		s += cfg.ProbePerAccess * countAccesses(m)
	}
	return s
}

// countAccesses counts the traced access events of a method — the events
// the heap-ordering instrumentation records (Sec. 6.1).
func countAccesses(m *ir.Method) int {
	n := 0
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			n += b.Instrs[i].AccessCount()
		}
	}
	return n
}

func (il *inliner) smallLimit() int {
	lim := il.cfg.InlineSmallSize
	if il.pgo {
		lim += il.cfg.PGOBonus
	}
	return lim
}

// build creates the CU rooted at root.
func (il *inliner) build(root *ir.Method) *CompilationUnit {
	cu := &CompilationUnit{
		Root:    root,
		Members: map[*ir.Method]bool{root: true},
		Size:    il.sizeOf(root),
	}
	if il.instr == InstrCU {
		cu.Size += il.cfg.ProbeCUEntry
	}
	il.inlineCalls(cu, root, map[*ir.Method]bool{root: true}, 1)
	return cu
}

// inlineCalls walks the call sites of m (already part of cu) and greedily
// inlines eligible callees.
func (il *inliner) inlineCalls(cu *CompilationUnit, m *ir.Method, stack map[*ir.Method]bool, depth int) {
	if depth > il.cfg.MaxInlineDepth {
		return
	}
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var callee *ir.Method
			switch in.Op {
			case ir.OpCall:
				callee = in.Method
			case ir.OpCallVirt:
				// Only monomorphic virtual calls inline (devirtualization).
				targets := ir.Overriders(in.Method)
				if len(targets) == 1 {
					callee = targets[0]
				}
			}
			if callee == nil || callee.Clinit || stack[callee] {
				continue
			}
			cs := il.sizeOf(callee)
			if cs > il.smallLimit() || cu.Size+cs > il.cfg.CUBudget {
				continue
			}
			cu.Size += cs
			cu.Inlined = append(cu.Inlined, callee)
			cu.Members[callee] = true
			stack[callee] = true
			il.inlineCalls(cu, callee, stack, depth+1)
			delete(stack, callee)
		}
	}
}

// BuildCUs forms compilation units for every compiled method. CUs are
// returned in the default Native-Image order: alphabetical by root signature
// (Sec. 2).
func BuildCUs(reach *Reachability, cfg Config, instr Instrumentation, pgo bool) []*CompilationUnit {
	il := &inliner{
		cfg: cfg, instr: instr, pgo: pgo, reach: reach,
		sizeOf: func(m *ir.Method) int { return effectiveSize(m, cfg, instr) },
	}
	// CompiledMethods is in signature order, so the CUs are too.
	methods := reach.CompiledMethods()
	cus := make([]*CompilationUnit, 0, len(methods))
	for _, m := range methods {
		cus = append(cus, il.build(m))
	}
	return cus
}
