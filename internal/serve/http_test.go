package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/fleet"
)

// TestHandler walks the HTTP surface: every status POST /requests can
// answer, and GET /stats reflecting what the requests before it did.
func TestHandler(t *testing.T) {
	sup, err := fleet.NewScenario(webScenario(syntheticProfile(t), 2))
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 4) // room for the four good requests below, full after them
	srv := newServer(t, sup, clk, gw, nil)
	h := srv.Handler(10)

	for _, tc := range []struct {
		name, method, target string
		want                 int
	}{
		{"default iters", http.MethodPost, "/requests?group=web", http.StatusAccepted},
		{"explicit iters", http.MethodPost, "/requests?group=web&iters=25", http.StatusAccepted},
		{"longest iters accepted", http.MethodPost, "/requests?group=web&iters=9999999", http.StatusAccepted},
		{"unknown group", http.MethodPost, "/requests?group=db", http.StatusNotFound},
		{"missing group", http.MethodPost, "/requests", http.StatusNotFound},
		{"GET refused", http.MethodGet, "/requests?group=web", http.StatusMethodNotAllowed},
		{"non-digit iters", http.MethodPost, "/requests?group=web&iters=1e3", http.StatusBadRequest},
		{"negative iters", http.MethodPost, "/requests?group=web&iters=-5", http.StatusBadRequest},
		{"eight-digit iters", http.MethodPost, "/requests?group=web&iters=10000000", http.StatusBadRequest},
		// 20 digits wrap int64: summed by the digit loop they would be a
		// 202 carrying a garbage, possibly negative, size.
		{"overflowing iters", http.MethodPost, "/requests?group=web&iters=" + strings.Repeat("9", 20), http.StatusBadRequest},
		// The query reads as url.ParseQuery reads it.
		{"percent-encoded key and value", http.MethodPost, "/requests?gr%6Fup=w%65b", http.StatusAccepted},
		{"first group wins", http.MethodPost, "/requests?group=db&group=web", http.StatusNotFound},
		{"semicolon segment dropped", http.MethodPost, "/requests?group=web;x=1", http.StatusNotFound},
		// Paths match exactly: no redirect, not even to the canonical
		// path (net/http.ServeMux answered //requests with a 301).
		{"unknown path", http.MethodPost, "/submit?group=web", http.StatusNotFound},
		{"non-canonical path", http.MethodPost, "//requests?group=web", http.StatusNotFound},
		{"HEAD /stats served", http.MethodHead, "/stats", http.StatusOK},
		{"intake full", http.MethodPost, "/requests?group=web", http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, nil))
			if w.Code != tc.want {
				t.Errorf("%s %s = %d, want %d", tc.method, tc.target, w.Code, tc.want)
			}
		})
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("GET /stats = %d (%s), want 200 application/json", w.Code, w.Header().Get("Content-Type"))
	}
	var fields map[string]int64
	if err := json.Unmarshal(w.Body.Bytes(), &fields); err != nil {
		t.Fatalf("stats body %q: %v", w.Body, err)
	}
	// Only the intake counters have moved (no round has run), and the
	// twin counters are present, zero, on a loop without a twin.
	want := map[string]int64{
		"round": 0, "submitted": 5, "overflow": 1, "accepted": 0, "shed": 0, "invalid": 0, "completions": 0,
		"twin_advises": 0, "twin_candidates": 0, "twin_rounds": 0, "twin_errors": 0,
	}
	if len(fields) != len(want) {
		t.Errorf("stats has %d fields %v, want %d", len(fields), fields, len(want))
	}
	for k, v := range want {
		if got, ok := fields[k]; !ok || got != v {
			t.Errorf("stats[%q] = %d (present %v), want %d", k, got, ok, v)
		}
	}
	// The sizes that were accepted reach the engine as sent.
	if err := srv.RunRound(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Accepted(); got != 4 {
		t.Errorf("accepted = %d after the round, want the 4 queued requests", got)
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops
// the body.
type discardWriter struct {
	hdr  http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestHandlerAllocs holds an accepted POST /requests, from ServeHTTP to
// Gateway.Submit, to zero allocations. Routed by net/http.ServeMux and
// read through URL.Query's url.Values, it cost 4 (go1.24.0).
func TestHandlerAllocs(t *testing.T) {
	sup, err := fleet.NewScenario(webScenario(syntheticProfile(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 1)
	h := newServer(t, sup, clk, gw, nil).Handler(10)
	req := httptest.NewRequest(http.MethodPost, "/requests?group=web&iters=25", nil)
	w := &discardWriter{hdr: http.Header{}}
	var drained []gwReq
	allocs := testing.AllocsPerRun(100, func() {
		w.code = 0
		h.ServeHTTP(w, req)
		drained = gw.drain(drained[:0])
	})
	if w.code != http.StatusAccepted || len(drained) != 1 || drained[0].iters != 25 {
		t.Fatalf("status %d, drained %+v; want 202 and one 25-iteration request", w.code, drained)
	}
	if allocs != 0 {
		t.Errorf("an accepted request allocates %.1f times, want 0", allocs)
	}
}

// FuzzHandler feeds the handler hostile input. queryValue must read
// group and iters as url.ParseQuery(raw).Get does on any raw query.
// The handler, on any method, path and query, must answer only
// 202/400/404/405/429 (200 on /stats), accept exactly when a decision
// built on url.ParseQuery accepts, and move the gateway's Submitted
// count only when the request reaches the gateway (202 or 429).
func FuzzHandler(f *testing.F) {
	for _, q := range []string{
		"gr%6Fup=w%65b", "group=db&group=web", "group=web;x=1", "group=%zz&group=web",
		"&&group=+web+", "=x&group", "group=web&iters=" + strings.Repeat("9", 20),
	} {
		f.Add(http.MethodPost, "/requests", q)
	}
	f.Add(http.MethodPost, "//requests", "group=web")
	f.Add(http.MethodGet, "/stats", "group=web")

	sup, err := fleet.NewScenario(webScenario(syntheticProfile(f), 1))
	if err != nil {
		f.Fatal(err)
	}
	clk := clock.NewVirtual(time.Unix(0, 0))
	gw := NewGateway(clk, 1) // one slot: a second accepted request meets a full intake
	h := newServer(f, sup, clk, gw, nil).Handler(10)
	var drained []gwReq

	f.Fuzz(func(t *testing.T, method, path, rawQuery string) {
		q, _ := url.ParseQuery(rawQuery) // partial on error, as URL.Query is
		for _, key := range []string{"group", "iters"} {
			if got, want := queryValue(rawQuery, key), q.Get(key); got != want {
				t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery says %q", rawQuery, key, got, want)
			}
		}
		want, wantIters := referenceStatus(method, path, q)
		req := &http.Request{Method: method, URL: &url.URL{Path: path, RawQuery: rawQuery}}
		serve := func() int {
			before := gw.Submitted()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			reached := w.Code == http.StatusAccepted || w.Code == http.StatusTooManyRequests
			if moved := gw.Submitted() != before; moved != reached {
				t.Fatalf("%s %s?%s = %d, but Submitted moved = %v", method, path, rawQuery, w.Code, moved)
			}
			return w.Code
		}
		drained = gw.drain(drained[:0])
		if got := serve(); got != want {
			t.Fatalf("%s %s?%s = %d, reference decision %d", method, path, rawQuery, got, want)
		}
		if want != http.StatusAccepted {
			return
		}
		if got := serve(); got != http.StatusTooManyRequests {
			t.Fatalf("%s %s?%s on a full intake = %d, want 429", method, path, rawQuery, got)
		}
		if drained = gw.drain(drained[:0]); len(drained) != 1 || drained[0].iters != wantIters {
			t.Fatalf("%s %s?%s queued %+v, want one request of %d iterations", method, path, rawQuery, drained, wantIters)
		}
	})
}

// referenceStatus is FuzzHandler's decision for a request to the
// one-group "web" fleet with 10 default iterations, made from the
// url.Values the handler no longer builds.
func referenceStatus(method, path string, q url.Values) (status, iters int) {
	switch {
	case path == "/stats":
		return http.StatusOK, 0
	case path != "/requests":
		return http.StatusNotFound, 0
	case method != http.MethodPost:
		return http.StatusMethodNotAllowed, 0
	case q.Get("group") != "web":
		return http.StatusNotFound, 0
	}
	v := q.Get("iters")
	if v == "" {
		return http.StatusAccepted, 10
	}
	if len(v) > maxItersDigits || strings.Trim(v, "0123456789") != "" {
		return http.StatusBadRequest, 0
	}
	n, _ := strconv.Atoi(v)
	return http.StatusAccepted, n
}
