package studysvc

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientReusesConnection pins keep-alive reuse across every client
// call: each one must read its reply to the end before closing it, so
// sequential calls share one connection. The handler flushes the JSON
// value before its trailing newline — the reply shape a json.Decoder
// stops short of — so a client that closes right after decoding drops
// the connection and redials.
func TestClientReusesConnection(t *testing.T) {
	var dials atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{}")
		w.(http.Flusher).Flush()
		time.Sleep(2 * time.Millisecond)
		io.WriteString(w, "\n")
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	calls := map[string]func() error{
		"Run":         func() error { _, err := c.Run(ctx, Request{}); return err },
		"Get":         func() error { _, err := c.Get(ctx, "s-1"); return err },
		"Artefact":    func() error { _, err := c.Artefact(ctx, "s-1", "table1"); return err },
		"Trace":       func() error { _, err := c.Trace(ctx, "t"); return err },
		"Traces":      func() error { _, err := c.Traces(ctx); return err },
		"TraceExport": func() error { _, err := c.TraceExport(ctx, "t"); return err },
		"Stats":       func() error { _, err := c.Stats(ctx); return err },
		"List":        func() error { _, err := c.List(ctx); return err },
	}
	n := 0
	for round := 0; round < 2; round++ {
		for name, call := range calls {
			if err := call(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n++
		}
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d sequential calls opened %d connections, want 1", n, got)
	}
}
