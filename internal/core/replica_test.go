package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/value"
)

func personBatch(id int64, name string) []graph.Mutation {
	return []graph.Mutation{
		{Kind: graph.MutCreateNode, ID: id, Labels: []string{"Person"},
			Props: map[string]value.Value{"name": value.NewString(name)}},
	}
}

func TestApplyReplicatedVisibility(t *testing.T) {
	e := emptyEngine()
	e.SetFollowerOf("http://leader:7474")

	if err := e.ApplyReplicatedTerm(e.FenceTerm(), personBatch(1, "Ada")); err != nil {
		t.Fatalf("apply: %v", err)
	}
	res, err := e.Run(`MATCH (p:Person) RETURN p.name`, nil)
	if err != nil {
		t.Fatalf("read after apply: %v", err)
	}
	if res.Len() != 1 || res.Rows()[0][0].String() != "'Ada'" {
		t.Fatalf("read sees %v", res.Rows())
	}

	// Each applied batch advances the published epoch like a local commit, so
	// the plan cache, which keys on the pinned epoch, recompiles instead of
	// serving a stale plan.
	st := e.MVCCStats()
	if st.PublishedEpoch != st.LiveEpoch {
		t.Fatalf("published epoch %d lags live %d after apply", st.PublishedEpoch, st.LiveEpoch)
	}
}

func TestApplyReplicatedKeepsEpochLockstep(t *testing.T) {
	e := emptyEngine()
	e.SetFollowerOf("http://leader:7474")

	// Many small batches: if ApplyReplicatedTerm failed to Capture its mutations
	// into the MVCC backlog, every BeginWrite would detect replica divergence
	// and re-clone the whole graph.
	for i := 0; i < 20; i++ {
		if err := e.ApplyReplicatedTerm(e.FenceTerm(), personBatch(int64(i+1), fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if st := e.MVCCStats(); st.Rebuilds != 0 {
		t.Fatalf("replica re-cloned %d times; Capture is not keeping epoch lockstep", st.Rebuilds)
	}
}

func TestApplyReplicatedUnderConcurrentReaders(t *testing.T) {
	e := emptyEngine()
	e.SetFollowerOf("http://leader:7474")
	if err := e.ApplyReplicatedTerm(e.FenceTerm(), personBatch(1, "seed")); err != nil {
		t.Fatal(err)
	}

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Run(`MATCH (p:Person) RETURN count(p) AS c`, nil)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				// Snapshot isolation: a batch is all-or-nothing, so the count
				// is whatever number of whole batches had published.
				if res.Len() != 1 {
					t.Errorf("read returned %d rows", res.Len())
					return
				}
			}
		}()
	}
	for i := 2; i <= 50; i++ {
		if err := e.ApplyReplicatedTerm(e.FenceTerm(), personBatch(int64(i), fmt.Sprintf("p%d", i))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	res, err := e.Run(`MATCH (p:Person) RETURN count(p) AS c`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows()[0][0].String(); got != "50" {
		t.Fatalf("final count %s, want 50", got)
	}
}

func TestResetReplicatedReplacesEverything(t *testing.T) {
	e := emptyEngine()
	// Existing state a snapshot catch-up must wipe: nodes, a relationship and
	// an index.
	if _, err := e.Run(`CREATE (:Old {v: 1})-[:R]->(:Old {v: 2})`, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("Old", "v"); err != nil {
		t.Fatal(err)
	}
	e.SetFollowerOf("http://leader:7474")

	image := []graph.Mutation{
		{Kind: graph.MutCreateIndex, Label: "New", Key: "k"},
		{Kind: graph.MutCreateNode, ID: 10, Labels: []string{"New"},
			Props: map[string]value.Value{"k": value.NewInt(1)}},
		{Kind: graph.MutCreateNode, ID: 11, Labels: []string{"New"},
			Props: map[string]value.Value{"k": value.NewInt(2)}},
		{Kind: graph.MutCreateRel, ID: 5, Start: 10, End: 11, Label: "LINKS"},
	}
	if err := e.ResetReplicated(image, 12, 6); err != nil {
		t.Fatalf("reset: %v", err)
	}

	res, err := e.Run(`MATCH (n) RETURN labels(n)[0] AS l, count(*) AS c ORDER BY l`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows()[0][0].String() != "'New'" || res.Rows()[0][1].String() != "2" {
		t.Fatalf("post-reset nodes: %v", res.Rows())
	}
	res, err = e.Run(`MATCH (:New)-[r:LINKS]->(:New) RETURN count(r)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].String() != "1" {
		t.Fatalf("post-reset relationships: %v", res.Rows())
	}
	// The shipped ID counters take effect (a later replicated create with the
	// next leader-assigned ID must not collide).
	if err := e.ApplyReplicatedTerm(e.FenceTerm(), []graph.Mutation{{Kind: graph.MutCreateNode, ID: 12, Labels: []string{"New"}}}); err != nil {
		t.Fatalf("apply after reset: %v", err)
	}
	// And MVCC stays in lockstep through the reset.
	if st := e.MVCCStats(); st.Rebuilds != 0 {
		t.Fatalf("reset caused %d replica rebuilds, want 0", st.Rebuilds)
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	e := emptyEngine()
	e.SetFollowerOf("http://leader:7474")
	if err := e.ApplyReplicatedTerm(e.FenceTerm(), personBatch(1, "Ada")); err != nil {
		t.Fatal(err)
	}

	var ro *ReadOnlyReplicaError
	if _, err := e.Run(`CREATE (:Person {name: 'local'})`, nil); !errors.As(err, &ro) {
		t.Fatalf("write query err = %v, want ReadOnlyReplicaError", err)
	} else if ro.Leader != "http://leader:7474" {
		t.Fatalf("rejection leader = %q", ro.Leader)
	}
	if err := e.CreateIndex("Person", "name"); !errors.As(err, &ro) {
		t.Fatalf("CreateIndex err = %v, want ReadOnlyReplicaError", err)
	}
	if err := e.ImportFrom(graph.New()); !errors.As(err, &ro) {
		t.Fatalf("ImportFrom err = %v, want ReadOnlyReplicaError", err)
	}
	// Reads keep working, and nothing leaked from the rejected write.
	res, err := e.Run(`MATCH (p:Person) RETURN count(p)`, nil)
	if err != nil {
		t.Fatalf("read on follower: %v", err)
	}
	if res.Rows()[0][0].String() != "1" {
		t.Fatalf("follower count %v, want 1", res.Rows())
	}
}
