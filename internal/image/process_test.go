package image

import (
	"runtime"
	"testing"
	"time"

	"nimage/internal/osim"
)

// TestImageDoesNotRetainOS: running an image on an OS must not keep the
// OS reachable from the image. Images live as long as the harness memoizes
// them; every serve or fleet run uses a fresh OS, so an image that kept its
// OSes would hold every page cache it ever ran on.
func TestImageDoesNotRetainOS(t *testing.T) {
	img, err := Build(buildApp(t), regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		o := testOS()
		f, err := img.File(o)
		if err != nil {
			t.Fatal(err)
		}
		// The OS and its files reference each other, and the runtime never
		// finalizes an object inside a cycle, so the probe is the file's
		// section table: a block only the file references.
		runtime.SetFinalizer(&f.Sections[0], func(*osim.Section) { close(collected) })
		for i := 0; i < 2; i++ {
			proc, err := img.NewProcess(o, vmHooksNone())
			if err != nil {
				t.Fatal(err)
			}
			if err := proc.Run(); err != nil {
				t.Fatal(err)
			}
			proc.Close()
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(img)
			return
		case <-deadline:
			t.Fatal("the file of an OS the image ran on is still reachable after its processes closed")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestProcessesShareFilePerOS: every process of one image on one OS maps
// the same page-cache file (warm restarts depend on it), while another
// OS or another image gets a file of its own.
func TestProcessesShareFilePerOS(t *testing.T) {
	p := buildApp(t)
	img, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	other, err := Build(p, regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := testOS()
	a, err := img.File(o)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := img.File(o); b != a {
		t.Error("one image got two files on one OS")
	}
	if b, _ := other.File(o); b == a {
		t.Error("two images share one file")
	}
	if b, _ := img.File(testOS()); b == a {
		t.Error("two OSes share one file")
	}
}

// TestProcessesOfOneImageSerialize: a process mutates its image's
// build-time heap until Close, so a second process of the same image
// must wait for the first to close.
func TestProcessesOfOneImageSerialize(t *testing.T) {
	img, err := Build(buildApp(t), regularOpts())
	if err != nil {
		t.Fatal(err)
	}
	first, err := img.NewProcess(testOS(), vmHooksNone())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan *Process)
	go func() {
		proc, err := img.NewProcess(testOS(), vmHooksNone())
		if err != nil {
			t.Error(err)
		}
		started <- proc
	}()
	select {
	case <-started:
		t.Fatal("second process started while the first was open")
	case <-time.After(50 * time.Millisecond):
	}
	first.Close()
	select {
	case proc := <-started:
		if proc != nil {
			proc.Close()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second process still blocked after the first closed")
	}
}
