package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"time"

	cypher "repro"
	"repro/internal/datasets"
	"repro/internal/graph"
)

// socialStore builds the same social graph cypher-serve builds for
// `-dataset social -size people`.
func socialStore(people int) *graph.Graph {
	return datasets.SocialNetwork(datasets.SocialConfig{People: people, FriendsEach: 8, Seed: 42})
}

type reply struct {
	Columns []string          `json:"columns"`
	Rows    []json.RawMessage `json:"rows"`
	TimeMs  float64           `json:"timeMs"`
}

func decodeReply(body []byte) (reply, error) {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// canonRow re-encodes one JSON row so that equal values compare equal as
// strings, whatever spacing or number spelling they came with.
func canonRow(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	return string(b), err
}

// canonRows canonicalizes rows; unless ordered, it sorts them, because
// Cypher leaves row order unspecified without ORDER BY and the rows are
// compared as a multiset.
func canonRows(rows []json.RawMessage, ordered bool) ([]string, error) {
	out := make([]string, len(rows))
	for i, r := range rows {
		s, err := canonRow(r)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	if !ordered {
		sort.Strings(out)
	}
	return out, nil
}

// checkAnswers compares every sampled read reply with the serial
// in-process engine (Parallelism 1) over the same dataset.
func checkAnswers(oracle *cypher.Graph, outs []outcome) (int, error) {
	checked := 0
	for _, o := range outs {
		if !o.req.sample || !o.ok || o.req.write {
			continue
		}
		got, err := decodeReply(o.body)
		if err != nil {
			return checked, err
		}
		res, err := oracle.Run(o.req.query, o.req.params)
		if err != nil {
			return checked, fmt.Errorf("oracle %q: %w", o.req.query, err)
		}
		wantRows := make([]json.RawMessage, 0, res.Len())
		for _, row := range res.Rows() {
			b, err := json.Marshal(row)
			if err != nil {
				return checked, err
			}
			wantRows = append(wantRows, b)
		}
		want, err := canonRows(wantRows, o.req.ordered)
		if err != nil {
			return checked, err
		}
		have, err := canonRows(got.Rows, o.req.ordered)
		if err != nil {
			return checked, err
		}
		if !reflect.DeepEqual(got.Columns, res.Columns()) || !reflect.DeepEqual(have, want) {
			return checked, fmt.Errorf("answer mismatch for %q %v:\n server: %v %v\n oracle: %v %v",
				o.req.query, o.req.params, got.Columns, have, res.Columns(), want)
		}
		checked++
	}
	return checked, nil
}

// writeTally counts write-cluster's writes: attempted and acknowledged
// creates and updates.
type writeTally struct {
	createsTried, createsAcked int
	updatesTried, updatesAcked int
}

func tallyWrites(outs []outcome) writeTally {
	var t writeTally
	for _, o := range outs {
		switch o.req.class {
		case "create":
			t.createsTried++
			if o.ok {
				t.createsAcked++
			}
		case "update":
			t.updatesTried++
			if o.ok {
				t.updatesAcked++
			}
		}
	}
	return t
}

// checkFollowerReads checks every sampled follower read: one row whose v is
// an integer between 0 and the number of updates attempted.
func checkFollowerReads(outs []outcome, t writeTally) (int, error) {
	checked := 0
	for _, o := range outs {
		if o.req.class != "read" || !o.ok || !o.req.sample {
			continue
		}
		r, err := decodeReply(o.body)
		if err != nil {
			return checked, err
		}
		var v []int64
		if len(r.Rows) != 1 || json.Unmarshal(r.Rows[0], &v) != nil || len(v) != 1 || v[0] < 0 || v[0] > int64(t.updatesTried) {
			return checked, fmt.Errorf("follower read of k=%d returned %s", o.req.k, r.Rows)
		}
		checked++
	}
	return checked, nil
}

// queryInts runs a query that returns one row of integers.
func queryInts(base, query string) ([]int64, error) {
	b, err := postOK(base, query, nil)
	if err != nil {
		return nil, err
	}
	r, err := decodeReply(b)
	if err != nil {
		return nil, err
	}
	var v []int64
	if len(r.Rows) != 1 || json.Unmarshal(r.Rows[0], &v) != nil {
		return nil, fmt.Errorf("%s: %q returned %s", base, query, b)
	}
	return v, nil
}

// checkConverged runs once every follower reports the leader's position.
// On every node, count(:Ev) and sum(a.v) must lie between the acknowledged
// and the attempted writes, :Acct must hold every account, and all nodes
// must agree. A follower makes a journaled batch visible a moment after it
// reports the position, so the check polls until it holds or limit passes.
func checkConverged(d *deployment, t writeTally, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		err := convergedOnce(d, t)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func convergedOnce(d *deployment, t writeTally) error {
	var first []int64
	for i, n := range d.nodes {
		got, err := queryInts(n.url, "MATCH (a:Acct) RETURN count(a) AS accts, sum(a.v) AS updates")
		if err != nil {
			return err
		}
		ev, err := queryInts(n.url, "MATCH (e:Ev) RETURN count(e) AS creates")
		if err != nil {
			return err
		}
		got = append(got, ev...)
		if got[0] != acctKeys {
			return fmt.Errorf("node %d holds %d :Acct nodes, want %d", i, got[0], acctKeys)
		}
		if got[1] < int64(t.updatesAcked) || got[1] > int64(t.updatesTried) {
			return fmt.Errorf("node %d has sum(a.v) = %d; %d updates acknowledged, %d attempted", i, got[1], t.updatesAcked, t.updatesTried)
		}
		if got[2] < int64(t.createsAcked) || got[2] > int64(t.createsTried) {
			return fmt.Errorf("node %d holds %d :Ev nodes; %d creates acknowledged, %d attempted", i, got[2], t.createsAcked, t.createsTried)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			return fmt.Errorf("node %d disagrees with node 0: %v vs %v", i, got, first)
		}
	}
	return nil
}
