package main

// Serving-layer governance tests: admission control's 429/503 load shedding,
// the HTTP status mapping for governed query failures, the /stats governance
// section, and client-disconnect hygiene over a real HTTP connection.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	cypher "repro"
	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/value"
)

// testGraph builds a 20k-node graph: big enough that an unfiltered cross
// product (4e8 pairs) cannot finish inside test time.
func testGraph(t *testing.T, opts cypher.Options) *cypher.Graph {
	t.Helper()
	store := graph.New()
	for i := 0; i < 20_000; i++ {
		store.CreateNode([]string{"S"}, map[string]value.Value{"i": value.NewInt(int64(i))})
	}
	return cypher.Wrap(store, opts)
}

const serveUnbounded = `MATCH (a), (b) WHERE a.i + b.i = -1 RETURN count(*)`

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode %d response: %v", resp.StatusCode, err)
	}
	return resp, out
}

func TestAdmissionQueueFullAnswers429(t *testing.T) {
	srv := newServer(serverConfig{
		graph:       testGraph(t, cypher.Options{}),
		maxInflight: 1,
		queueDepth:  0,
		queueWait:   time.Second,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Occupy the only slot directly: deterministic, no racing goroutines.
	srv.adm.slots <- struct{}{}
	defer func() { <-srv.adm.slots }()

	resp, out := postQuery(t, ts, `{"query": "RETURN 1"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if srv.adm.rejectedQueueFull.Load() != 1 {
		t.Errorf("rejectedQueueFull = %d", srv.adm.rejectedQueueFull.Load())
	}
}

func TestAdmissionWaitDeadlineAnswers503(t *testing.T) {
	srv := newServer(serverConfig{
		graph:       testGraph(t, cypher.Options{}),
		maxInflight: 1,
		queueDepth:  1,
		queueWait:   25 * time.Millisecond,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	srv.adm.slots <- struct{}{}
	defer func() { <-srv.adm.slots }()

	start := time.Now()
	resp, out := postQuery(t, ts, `{"query": "RETURN 1"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %v)", resp.StatusCode, out)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("rejected after %v, before the queue wait elapsed", elapsed)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("503 without Retry-After")
	}
	// Once the slot frees, the same server admits again.
	<-srv.adm.slots
	resp, _ = postQuery(t, ts, `{"query": "RETURN 1"}`)
	srv.adm.slots <- struct{}{} // restore for the deferred release
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
}

func TestQueryErrorStatusMapping(t *testing.T) {
	eval.RegisterFunction("servetest_boom", func([]value.Value) (value.Value, error) {
		panic("operator bug")
	})
	srv := newServer(serverConfig{
		graph:        testGraph(t, cypher.Options{}),
		queryTimeout: time.Minute, // server cap; requests tighten below
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"ok", `{"query": "RETURN 1"}`, http.StatusOK},
		{"parse error", `{"query": "MATCH ("}`, http.StatusUnprocessableEntity},
		{"deadline", fmt.Sprintf(`{"query": %q, "timeoutMs": 50}`, serveUnbounded), http.StatusGatewayTimeout},
		{"memory", `{"query": "MATCH (n) RETURN n.i ORDER BY n.i", "memoryBudget": 4096}`, http.StatusInsufficientStorage},
		{"panic", `{"query": "RETURN servetest_boom()"}`, http.StatusInternalServerError},
		{"negative override", `{"query": "RETURN 1", "timeoutMs": -5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := postQuery(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.want, out)
			}
		})
	}
	// All failures stayed inside their queries: the engine still serves.
	resp, _ := postQuery(t, ts, `{"query": "MATCH (n) RETURN count(n)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine unusable after governed failures: %d", resp.StatusCode)
	}
	if pins := srv.graph.MVCCStats().ActivePins; pins != 0 {
		t.Errorf("leaked pins after governed failures: %d", pins)
	}
}

func TestClientDisconnectMidQuery(t *testing.T) {
	srv := newServer(serverConfig{
		graph: testGraph(t, cypher.Options{Parallelism: 4}),
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		bytes.NewReader([]byte(fmt.Sprintf(`{"query": %q}`, serveUnbounded))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	// Give the query time to start, then hang up.
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("request succeeded despite cancellation")
	}

	// The server must notice promptly and release everything.
	deadline := time.Now().Add(3 * time.Second)
	for srv.graph.GovernanceStats().Canceled == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if gs := srv.graph.GovernanceStats(); gs.Canceled == 0 {
		t.Errorf("Canceled counter = 0 after client disconnect")
	}
	for srv.graph.MVCCStats().ActivePins != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pins := srv.graph.MVCCStats().ActivePins; pins != 0 {
		t.Errorf("ActivePins = %d after disconnect", pins)
	}
	resp, _ := postQuery(t, ts, `{"query": "MATCH (n) RETURN count(n)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine unusable after disconnect: %d", resp.StatusCode)
	}
}

func TestStatsGovernanceSection(t *testing.T) {
	srv := newServer(serverConfig{
		graph:        testGraph(t, cypher.Options{}),
		queryTimeout: 30 * time.Second,
		memoryBudget: 1 << 20,
		maxInflight:  8,
		queueDepth:   16,
		queueWait:    time.Second,
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Drive each governed failure mode once so the counters are non-zero.
	postQuery(t, ts, fmt.Sprintf(`{"query": %q, "timeoutMs": 20}`, serveUnbounded))
	postQuery(t, ts, `{"query": "MATCH (n) RETURN n.i ORDER BY n.i", "memoryBudget": 4096}`)
	postQuery(t, ts, `{"query": "RETURN 1"}`)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Governance struct {
			InFlight         int64 `json:"inFlight"`
			DeadlineExceeded uint64
			MemoryExhausted  uint64
			PeakQueryBytes   int64
			Admission        struct {
				Enabled     bool
				MaxInflight int
				Admitted    uint64
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	gov := out.Governance
	if gov.DeadlineExceeded == 0 || gov.MemoryExhausted == 0 {
		t.Errorf("governed failures not counted: %+v", gov)
	}
	if gov.PeakQueryBytes <= 0 {
		t.Errorf("peakQueryBytes = %d", gov.PeakQueryBytes)
	}
	if gov.InFlight != 0 {
		t.Errorf("inFlight = %d on an idle server", gov.InFlight)
	}
	if !gov.Admission.Enabled || gov.Admission.MaxInflight != 8 || gov.Admission.Admitted < 3 {
		t.Errorf("admission stats = %+v", gov.Admission)
	}

	// /healthz carries the live-query summary too.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if _, ok := hz["inFlight"]; !ok {
		t.Errorf("/healthz missing inFlight: %v", hz)
	}
	if _, ok := hz["queued"]; !ok {
		t.Errorf("/healthz missing queued: %v", hz)
	}
}
