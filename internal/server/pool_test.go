package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aimes"
	"aimes/client"
)

// The daemon's request and batch buffers come from pools and serve one
// request after another. These tests hold it to its rule: a buffer goes back
// only once nothing that outlives the request aliases it.

// pinnedRequest is a submission of an n-task bag whose one stage is named
// stage, pinned to shard. Two of them of one size differ in their stage name
// alone, so bodies whose names have one length have one length too.
func pinnedRequest(t *testing.T, stage string, n, shard int) *client.SubmitRequest {
	t.Helper()
	w, err := aimes.GenerateWorkload(aimes.AppSpec{
		Name:   "bag",
		Stages: []aimes.StageSpec{{Name: stage, Tasks: n, DurationS: aimes.ConstantSpec(60)}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := w.WriteMiddlewareJSON(&doc); err != nil {
		t.Fatal(err)
	}
	return &client.SubmitRequest{Workload: doc.Bytes(), Config: lateBackfill, Placement: "pinned", Shard: shard}
}

// replay reads job id's SSE stream on h to its end: its events, less their
// job ID, which a daemon mints at random, and its final snapshot.
func replay(t *testing.T, h http.Handler, id string) ([]client.Event, *client.JobInfo) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Authorization", "Bearer tok")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var events []client.Event
	var final *client.JobInfo
	var name string
	sc := bufio.NewScanner(rr.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			name = v
		}
		data, ok := strings.CutPrefix(line, "data: ")
		switch {
		case !ok:
		case name == "job":
			var ev client.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Job != id {
				t.Fatalf("job %s: event %s (%v)", id, data, err)
			}
			ev.Job = ""
			events = append(events, ev)
		case name == "done":
			final = new(client.JobInfo)
			if err := json.Unmarshal([]byte(data), final); err != nil {
				t.Fatal(err)
			}
		}
	}
	if final == nil || final.State != "done" {
		t.Fatalf("job %s: stream ends without a done snapshot: %+v", id, final)
	}
	return events, final
}

// TestPooledBodyNeverReachesALiveJob submits job A on shard 1, scribbles over
// every buffer the body pool then holds — A's body among them — and submits
// job B, a body of the same length naming other tasks, on shard 2, so that B
// is read into A's buffer. A must still run and report exactly as on a daemon
// that never saw B: its units named by its own task IDs, its report the same.
func TestPooledBodyNeverReachesALiveJob(t *testing.T) {
	a, err := json.Marshal(pinnedRequest(t, "aaaa", 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(pinnedRequest(t, "bbbb", 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("bodies of %d and %d bytes: B cannot take A's buffer", len(a), len(b))
	}
	// What outlives the request — the workload, and the request less its raw
	// document — holds none of the body's bytes.
	body := slices.Clone(a)
	req, w, err := client.ParseSubmitRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	clear(body)
	wantReq, wantW, _ := client.ParseSubmitRequest(a)
	req.Workload, wantReq.Workload = nil, nil
	if !reflect.DeepEqual(w, wantW) || !reflect.DeepEqual(req, wantReq) {
		t.Fatal("a submission parsed from a body changes when the body is overwritten")
	}
	run := func(withB bool) ([]client.Event, *client.JobInfo) {
		h := testServer(t, aimes.WithSeed(11), aimes.WithShards(3)).Handler()
		rr := post(h, a)
		var info client.JobInfo
		if err := json.Unmarshal(rr.Body.Bytes(), &info); rr.Code != http.StatusCreated || err != nil {
			t.Fatalf("submitting A: status %d, %s", rr.Code, rr.Body)
		}
		if withB {
			var held []*[]byte
			for range 4 {
				buf := bodies.Get()
				full := (*buf)[:cap(*buf)]
				for i := range full {
					full[i] = '#'
				}
				held = append(held, buf)
			}
			for _, buf := range held {
				bodies.Put(buf)
			}
			if rr := post(h, b); rr.Code != http.StatusCreated {
				t.Fatalf("submitting B: status %d, %s", rr.Code, rr.Body)
			}
		}
		return replay(t, h, info.ID)
	}
	wantEvents, wantFinal := run(false)
	gotEvents, gotFinal := run(true)
	units := 0
	for _, ev := range gotEvents {
		if strings.HasPrefix(ev.Entity, "unit.") {
			units++
			if !strings.HasPrefix(ev.Entity, "unit.aaaa") {
				t.Fatalf("A's trace names unit %q, not one of A's tasks", ev.Entity)
			}
		}
	}
	if units == 0 || !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Errorf("A's trace, %d events (%d of units), differs from its trace on a daemon that never saw B (%d events)", len(gotEvents), units, len(wantEvents))
	}
	if gotFinal.Report.UnitsDone != 12 || !reflect.DeepEqual(gotFinal.Report, wantFinal.Report) {
		t.Errorf("A's report %+v, on a daemon that never saw B %+v", gotFinal.Report, wantFinal.Report)
	}
}

// TestConcurrentFollowersReadOwnEvents: two SSE followers of two jobs, at
// once, on one daemon and one Client — the server's batch buffers, the
// client's readers and reply buffers lent from pools they share — each read
// exactly their own job's stream: the one a follower reads alone afterwards.
func TestConcurrentFollowersReadOwnEvents(t *testing.T) {
	srv := testServer(t, aimes.WithSeed(11), aimes.WithShards(3))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := client.New(hs.URL, "tok")
	stages := []string{"aaaa", "bbbb"}
	ids := make([]string, len(stages))
	for i, stage := range stages {
		info, err := c.SubmitRaw(ctx, pinnedRequest(t, stage, 200, 1+i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
	}
	follow := func(i int) ([]client.Event, *client.JobInfo) {
		es, err := c.Events(ctx, ids[i], 0)
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		var events []client.Event
		for ev := range es.C {
			if ev.Job != ids[i] || strings.HasPrefix(ev.Entity, "unit.") && !strings.HasPrefix(ev.Entity, "unit."+stages[i]) {
				t.Errorf("job %s's stream carries %+v", ids[i], ev)
			}
			events = append(events, ev)
		}
		if es.Err() != nil {
			t.Error(es.Err())
		}
		return events, es.Final()
	}
	for round := 0; round < 3; round++ {
		gotEvents := make([][]client.Event, len(ids))
		gotFinal := make([]*client.JobInfo, len(ids))
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				gotEvents[i], gotFinal[i] = follow(i)
			}()
		}
		wg.Wait()
		for i, id := range ids {
			wantEvents, wantFinal := follow(i)
			if len(gotEvents[i]) < 600 || !reflect.DeepEqual(gotEvents[i], wantEvents) || !reflect.DeepEqual(gotFinal[i], wantFinal) {
				t.Fatalf("round %d, job %s: %d events followed beside the other job, %d alone", round, id, len(gotEvents[i]), len(wantEvents))
			}
		}
	}
}
