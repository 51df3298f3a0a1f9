package ir

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
)

// Field describes an instance or static field of a class.
type Field struct {
	// Class is the declaring class (resolved).
	Class *Class
	Name  string
	Type  TypeRef
	// Static reports whether this is a class (static) field.
	Static bool
	// Slot is the index of the field in the instance layout (AllFields) for
	// instance fields, or in Class.Statics for static fields. Populated by
	// Program.Resolve.
	Slot int
}

// Descriptor renders the field as "Class.name:Type" — the form hashed by
// the heap-path strategy (Algorithm 3, line 20).
func (f *Field) Descriptor() string {
	return f.Class.Name + "." + f.Name + ":" + f.Type.FullyQualifiedName()
}

// Signature renders the field as "Class.name" — the heap-inclusion reason
// of objects stored in reachable static fields (Sec. 5.3).
func (f *Field) Signature() string {
	return f.Class.Name + "." + f.Name
}

// Method is a method of a class. Bodies are CFGs over a register file:
// registers [0, NParams) hold the parameters (register 0 is the receiver of
// instance methods); NumRegs is the total register count.
type Method struct {
	// Class is the declaring class (resolved).
	Class *Class
	Name  string
	// Static reports whether the method has no receiver. Non-static methods
	// take the receiver as parameter register 0.
	Static bool
	// NParams counts parameter registers, including the receiver.
	NParams int
	// Returns is the return type (KVoid for none).
	Returns TypeRef
	// NumRegs is the size of the register file.
	NumRegs int
	// Blocks is the CFG; Blocks[0] is the entry.
	Blocks []*Block

	// Clinit marks the class initializer. Class initializers execute at
	// image build time and populate the initial heap (Sec. 2).
	Clinit bool

	// size caches the code-size estimate. Atomic because concurrent image
	// builds of the same program (the eval scheduler) race to fill it; all
	// writers compute the same value, so any winner is correct.
	size atomic.Int64
}

// Signature renders the globally unique method signature,
// "Class.name(n)" with n the parameter count. Signatures are stable across
// builds and are the keys of the code-ordering profiles (Sec. 4).
func (m *Method) Signature() string {
	return m.Class.Name + "." + m.Name + "(" + strconv.Itoa(m.NParams) + ")"
}

// SortBySignature sorts methods by signature in place, rendering each
// signature once instead of twice per comparison. Signatures are unique,
// so the order is fully determined.
func SortBySignature(ms []*Method) {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Signature()
	}
	sort.Sort(bySignature{ms, keys})
}

// bySignature sorts methods by their precomputed signatures.
type bySignature struct {
	ms   []*Method
	keys []string
}

func (s bySignature) Len() int           { return len(s.ms) }
func (s bySignature) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s bySignature) Swap(i, j int) {
	s.ms[i], s.ms[j] = s.ms[j], s.ms[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// CodeSize returns the estimated compiled size of the method body in bytes,
// excluding inlinees. The estimate drives the size-driven inliner.
func (m *Method) CodeSize() int {
	if s := m.size.Load(); s != 0 {
		return int(s)
	}
	const prologue = 16
	s := prologue
	for _, b := range m.Blocks {
		for i := range b.Instrs {
			s += b.Instrs[i].CodeSize()
		}
		s += b.Term.CodeSize()
	}
	m.size.Store(int64(s))
	return s
}

// InvalidateSizeCache discards the cached code-size estimate; callers that
// mutate blocks after resolution (e.g. instrumentation) must invalidate.
func (m *Method) InvalidateSizeCache() { m.size.Store(0) }

// Class is a class definition. Single inheritance; subclasses may override
// methods by redefining the same name.
type Class struct {
	// Name is the fully qualified class name.
	Name string
	// SuperName is the fully qualified name of the superclass; empty for a
	// root class.
	SuperName string
	// Super is the resolved superclass.
	Super *Class
	// Fields are the instance fields declared by this class, in source
	// order (Algorithm 2 iterates fields in source-code definition order).
	Fields []*Field
	// Statics are the static fields declared by this class.
	Statics []*Field
	// Methods are the methods declared by this class, in source order.
	Methods []*Method

	// AllFields is the full instance layout: inherited fields first (in
	// hierarchy order), then own fields. Populated by Program.Resolve.
	AllFields []*Field

	// ID is the stable type identifier. Type IDs are assigned from the
	// sorted order of fully qualified names so that — as Sec. 5.1 requires —
	// the same type has the same ID in every build of the program.
	ID int

	methodsByName map[string]*Method
	subclasses    []*Class
}

// Clinit returns the class initializer method, or nil.
func (c *Class) Clinit() *Method {
	for _, m := range c.Methods {
		if m.Clinit {
			return m
		}
	}
	return nil
}

// DeclaredMethod returns the method declared directly on c with the given
// name, or nil.
func (c *Class) DeclaredMethod(name string) *Method {
	return c.methodsByName[name]
}

// LookupMethod resolves name against c and its superclasses, returning the
// most derived declaration (virtual dispatch).
func (c *Class) LookupMethod(name string) *Method {
	for k := c; k != nil; k = k.Super {
		if m := k.methodsByName[name]; m != nil {
			return m
		}
	}
	return nil
}

// LookupField resolves an instance field by name against c and its
// superclasses.
func (c *Class) LookupField(name string) *Field {
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// LookupStatic resolves a static field by name against c and its
// superclasses.
func (c *Class) LookupStatic(name string) *Field {
	for k := c; k != nil; k = k.Super {
		for _, f := range k.Statics {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// Subclasses returns the direct subclasses of c (populated by Resolve).
func (c *Class) Subclasses() []*Class { return c.subclasses }

// IsSubclassOf reports whether c equals or derives from k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

func (c *Class) String() string { return c.Name }

// Overriders returns every method that overrides root in the subtree below
// root's class, including root itself. This is the conservative virtual-call
// target set used by the reachability analysis.
func Overriders(root *Method) []*Method {
	var out []*Method
	var walk func(c *Class)
	walk = func(c *Class) {
		if m := c.methodsByName[root.Name]; m != nil {
			out = append(out, m)
		}
		for _, sub := range c.subclasses {
			walk(sub)
		}
	}
	walk(root.Class)
	if len(out) == 0 {
		out = append(out, root)
	}
	return out
}

func (c *Class) resolveInto(p *Program) error {
	if c.SuperName != "" {
		s := p.Class(c.SuperName)
		if s == nil {
			return fmt.Errorf("ir: class %s: unknown superclass %s", c.Name, c.SuperName)
		}
		c.Super = s
		s.subclasses = append(s.subclasses, c)
	}
	c.methodsByName = make(map[string]*Method, len(c.Methods))
	for _, m := range c.Methods {
		if _, dup := c.methodsByName[m.Name]; dup {
			return fmt.Errorf("ir: class %s: duplicate method %s", c.Name, m.Name)
		}
		c.methodsByName[m.Name] = m
		m.Class = c
	}
	seen := make(map[string]bool, len(c.Fields)+len(c.Statics))
	for _, f := range c.Fields {
		if seen[f.Name] {
			return fmt.Errorf("ir: class %s: duplicate field %s", c.Name, f.Name)
		}
		seen[f.Name] = true
		f.Class = c
	}
	for _, f := range c.Statics {
		if seen[f.Name] {
			return fmt.Errorf("ir: class %s: duplicate field %s", c.Name, f.Name)
		}
		seen[f.Name] = true
		f.Class = c
		f.Static = true
	}
	return nil
}

// layoutFields computes AllFields for c, resolving superclasses first.
func (c *Class) layoutFields() {
	if c.AllFields != nil {
		return
	}
	var layout []*Field
	if c.Super != nil {
		c.Super.layoutFields()
		layout = append(layout, c.Super.AllFields...)
	}
	layout = append(layout, c.Fields...)
	// Single inheritance means the layout of a subclass extends its
	// superclass layout, so an inherited field has the same slot in every
	// class that sees it.
	for i, f := range layout {
		f.Slot = i
	}
	c.AllFields = layout
}
