package vm

import (
	"fmt"
	"reflect"
	"testing"

	"nimage/internal/heap"
	"nimage/internal/ir"
)

// TestTrapDropsThreads: a trapped run's thread must not resume on the
// machine's next run. G.f(n) { q = 10/n; print q; return q } traps at
// n=0; a following f(5) on the same machine must print only its own 2.
func TestTrapDropsThreads(t *testing.T) {
	b := ir.NewBuilder("trap-resume")
	b.Class(ir.StringClass)
	mb := b.Class("G").StaticMethod("f", 1, ir.Int())
	e := mb.Entry()
	q := e.Arith(ir.Div, e.ConstInt(10), mb.Param(0))
	e.IntrinsicVoid(ir.IntrinsicPrint, q)
	e.Ret(q)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := p.Class("G").DeclaredMethod("f")
	m := New(p)
	var printed []heap.Value
	m.Hooks.OnPrint = func(tid int, v heap.Value) { printed = append(printed, v) }
	if _, err := m.RunMethod(f, heap.IntVal(0)); err == nil {
		t.Fatal("f(0) did not trap")
	}
	got, err := m.RunMethod(f, heap.IntVal(5))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 2 {
		t.Errorf("f(5) = %v, want 2", got)
	}
	if len(printed) != 1 || printed[0] != heap.IntVal(2) {
		t.Errorf("printed %v, want only f(5)'s 2", printed)
	}
}

// buildDeepRespond constructs S.d(n), which recurses to depth n and
// responds at the leaf. Every recursive frame writes its register v; the
// leaf frame never does, so a leaf that inherits a stale register from a
// recycled frame takes the field-load branch instead of the null one.
func buildDeepRespond(t *testing.T) *ir.Program {
	t.Helper()
	b := ir.NewBuilder("deep")
	b.Class(ir.StringClass)
	mb := b.Class("S").Field("x", ir.Int()).StaticMethod("d", 1, ir.Int())
	v := mb.NewReg()
	e := mb.Entry()
	leaf, rec := mb.NewBlock(), mb.NewBlock()
	e.If(e.Cmp(ir.Lt, mb.Param(0), e.ConstInt(1)), leaf, rec)

	rec.MoveTo(v, rec.New("S"))
	rec.PutField(v, "S", "x", mb.Param(0))
	rec.Ret(rec.Call("S", "d", rec.Arith(ir.Sub, mb.Param(0), rec.ConstInt(1))))

	isNull, stale := mb.NewBlock(), mb.NewBlock()
	leaf.If(leaf.Cmp(ir.Eq, v, leaf.Null()), isNull, stale)
	isNull.IntrinsicVoid(ir.IntrinsicRespond)
	isNull.Ret(mb.Param(0))
	stale.IntrinsicVoid(ir.IntrinsicRespond)
	stale.Ret(stale.GetField(v, "S", "x"))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runTrace is what one RunMethod call observably does.
type runTrace struct {
	result        heap.Value
	steps, cycles int64
	events        []string
}

// traceRun runs d(n) on m and records the run's observable behaviour.
func traceRun(t *testing.T, m *Machine, d *ir.Method, n int64) runTrace {
	t.Helper()
	var events []string
	m.Hooks = Hooks{
		OnMethodEnter: func(tid int, mm *ir.Method) { events = append(events, "enter "+mm.Signature()) },
		OnBlock: func(tid int, mm *ir.Method, b int) {
			events = append(events, fmt.Sprintf("block %s %d", mm.Signature(), b))
		},
		OnAccess: func(tid int, o *heap.Object, instr bool) {
			events = append(events, fmt.Sprintf("access %s %v", o.TypeName(), instr))
		},
	}
	steps, cycles := m.Steps, m.Cycles
	got, err := m.RunMethod(d, heap.IntVal(n))
	if err != nil {
		t.Fatal(err)
	}
	return runTrace{
		result: got, steps: m.Steps - steps, cycles: m.Cycles - cycles,
		events: events,
	}
}

// TestRecycledFramesStartClean: requests that respond deep inside a
// recursion abandon their frames; reusing them on the same machine must
// behave exactly like running each request on a fresh machine.
func TestRecycledFramesStartClean(t *testing.T) {
	p := buildDeepRespond(t)
	d := p.Class("S").DeclaredMethod("d")
	warm := New(p)
	warm.StopOnRespond = true
	for i, n := range []int64{6, 3, 9, 6, 0, 9} {
		fresh := New(p)
		fresh.StopOnRespond = true
		want := traceRun(t, fresh, d, n)
		got := traceRun(t, warm, d, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d d(%d) on a reused machine:\n got  %+v\nwant %+v", i, n, got, want)
		}
	}
}

// TestWarmCallsDoNotAllocate: on a warm machine a run reuses a dropped
// thread and each call a freed frame with its registers, so fib(15)'s
// ~2000 calls allocate nothing.
func TestWarmCallsDoNotAllocate(t *testing.T) {
	p := buildFib(t)
	fib := p.Class("F").DeclaredMethod("fib")
	m := New(p)
	arg := heap.IntVal(15)
	if got, err := m.RunMethod(fib, arg); err != nil || got.Int() != 610 {
		t.Fatalf("fib(15) = %v, %v", got, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.RunMethod(fib, arg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm RunMethod(fib, 15) allocates %.0f times, want at most 2", allocs)
	}
}
