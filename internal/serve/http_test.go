package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
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
	gw := NewGateway(clk, 3) // room for the three good requests below, full after them
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
		"round": 0, "submitted": 4, "overflow": 1, "accepted": 0, "shed": 0, "invalid": 0, "completions": 0,
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
	if got := srv.Accepted(); got != 3 {
		t.Errorf("accepted = %d after the round, want the 3 queued requests", got)
	}
}
