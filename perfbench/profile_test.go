package main

import "testing"

func TestLayerOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"math.Exp", "shortcuts/internal/latency.(*Engine).pingSlot", "shortcuts/internal/measure.(*campaign).roundExec"}, "latency"},
		{[]string{"runtime.mallocgc", "shortcuts.sinkAdapter.Emit", "shortcuts/internal/measure.RunStream"}, "shortcuts"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).finishRequest"}, "nethttp"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"encoding/json.Marshal", "shortcuts/internal/serve.page[go.shape.struct { Relay *shortcuts/internal/serve.RelayRef }]"}, "serve"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}
