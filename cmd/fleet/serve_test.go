package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerBoundsHeaders holds the live gateway's server to a
// header deadline and a header size ceiling: with either left at zero,
// net/http waits on a slow client's headers forever or accepts 1 MiB
// of them.
func TestHTTPServerBoundsHeaders(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != quantum {
		t.Errorf("ReadHeaderTimeout = %v, want one quantum (%v)", hs.ReadHeaderTimeout, quantum)
	}
	if hs.MaxHeaderBytes != 16<<10 {
		t.Errorf("MaxHeaderBytes = %d, want 16 KiB", hs.MaxHeaderBytes)
	}
}
