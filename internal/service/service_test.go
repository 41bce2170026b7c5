package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mufuzz/internal/corpus"
	"mufuzz/internal/fuzz"
	"mufuzz/internal/store"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func startService(t *testing.T, st *store.Store, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Store = st
	svc := New(cfg)
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func hasClass(st Status, class string) bool {
	for _, c := range st.Classes {
		if c == class {
			return true
		}
	}
	return false
}

// TestServiceEndToEnd is the acceptance scenario: two concurrent campaigns
// submitted over the HTTP API fuzz the same contract, share seeds through
// the store, both detect the deep block-dependency bug within their fixed
// budget, and a drain/restart cycle loses no findings.
func TestServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, ts := startService(t, openStoreT(t, dir), Config{Slots: 2, SliceRounds: 4, DefaultIterations: 6000})

	// Submit two campaigns on the same contract with different seeds.
	var ids []string
	for _, seed := range []int64{1, 42} {
		var st Status
		code := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{
			Example: "crowdsale-buggy", Seed: seed, Iterations: 6000,
		}, &st)
		if code != http.StatusCreated {
			t.Fatalf("submit returned %d", code)
		}
		if st.ID == "" || st.Contract != "CrowdsaleBuggy" {
			t.Fatalf("bad submit status: %+v", st)
		}
		ids = append(ids, st.ID)
	}

	// Both campaigns must crack the nested withdraw branch (the BD finding
	// lives behind phase==1, which needs invested>=goal first) within their
	// budget.
	status := func(id string) Status {
		var st Status
		if code := getJSON(t, ts.URL+"/v1/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("status %s returned %d", id, code)
		}
		return st
	}
	waitFor(t, 60*time.Second, "both campaigns detect BD", func() bool {
		return hasClass(status(ids[0]), "BD") && hasClass(status(ids[1]), "BD")
	})

	// Seed sharing must actually have happened through the store.
	waitFor(t, 60*time.Second, "cross-campaign seed sharing", func() bool {
		a, b := status(ids[0]), status(ids[1])
		return a.SeedsExported+b.SeedsExported > 0 && a.SeedsImported+b.SeedsImported > 0
	})
	entries, err := openStoreT(t, dir).Seeds("CrowdsaleBuggy")
	if err != nil || len(entries) == 0 {
		t.Fatalf("store has no shared seeds (err=%v)", err)
	}

	// Findings endpoint serves the PoC with a minimized variant.
	var findings []Finding
	if code := getJSON(t, ts.URL+"/v1/campaigns/"+ids[0]+"/findings?minimize=1", &findings); code != http.StatusOK {
		t.Fatalf("findings returned %d", code)
	}
	if len(findings) == 0 {
		t.Fatal("no findings served")
	}
	sawBD := false
	for _, f := range findings {
		if f.Class == "BD" {
			sawBD = true
			if len(f.PoC) == 0 || len(f.PoCMin) == 0 || len(f.PoCMin) > len(f.PoC) {
				t.Fatalf("bad PoC shape: %+v", f)
			}
		}
	}
	if !sawBD {
		t.Fatalf("BD missing from findings: %+v", findings)
	}

	// Drain over HTTP: everything snapshots to the store.
	var drainResp map[string]any
	if code := postJSON(t, ts.URL+"/v1/drain", nil, &drainResp); code != http.StatusOK {
		t.Fatalf("drain returned %d", code)
	}

	// Restart against the same store: both campaigns are back with their
	// findings intact, and unfinished ones keep running to completion.
	svc2, ts2 := startService(t, openStoreT(t, dir), Config{Slots: 2, SliceRounds: 4})
	defer svc2.Drain()
	for _, id := range ids {
		var st Status
		if code := getJSON(t, ts2.URL+"/v1/campaigns/"+id, &st); code != http.StatusOK {
			t.Fatalf("restarted status %s returned %d", id, code)
		}
		if !hasClass(st, "BD") {
			t.Fatalf("campaign %s lost its BD finding across drain/restart: %+v", id, st)
		}
		var fs []Finding
		if code := getJSON(t, ts2.URL+"/v1/campaigns/"+id+"/findings", &fs); code != http.StatusOK || len(fs) == 0 {
			t.Fatalf("restarted findings %s: code=%d n=%d", id, code, len(fs))
		}
	}
	waitFor(t, 120*time.Second, "restarted campaigns finish their budget", func() bool {
		done := 0
		for _, id := range ids {
			var st Status
			getJSON(t, ts2.URL+"/v1/campaigns/"+id, &st)
			if st.State == StateDone {
				done++
			}
		}
		return done == len(ids)
	})
}

// TestServiceSSEAndCancel covers the status stream and campaign
// cancellation.
func TestServiceSSEAndCancel(t *testing.T) {
	_, ts := startService(t, openStoreT(t, t.TempDir()), Config{Slots: 1, SliceRounds: 2})

	var st Status
	postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{Example: "crowdsale", Iterations: 100000}, &st)

	// The SSE stream delivers at least one status event.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "data: ") {
		t.Fatalf("no SSE event in %q", buf[:n])
	}

	if code := postJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel returned %d", code)
	}
	waitFor(t, 30*time.Second, "campaign cancelled", func() bool {
		var cur Status
		getJSON(t, ts.URL+"/v1/campaigns/"+st.ID, &cur)
		return cur.State == StateCancelled
	})
	// A cancelled campaign stopped early: it must not reach its budget.
	var cur Status
	getJSON(t, ts.URL+"/v1/campaigns/"+st.ID, &cur)
	if cur.Executions >= cur.Iterations {
		t.Fatalf("cancelled campaign ran its whole budget: %+v", cur)
	}

	if code := getJSON(t, ts.URL+"/v1/campaigns/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign returned %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{Source: "contract Broken {"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad source returned %d", code)
	}
}

// TestServiceRejectsAfterDrain pins drain semantics on the Go API.
func TestServiceRejectsAfterDrain(t *testing.T) {
	svc, _ := startService(t, openStoreT(t, t.TempDir()), Config{})
	if _, err := svc.Submit(CampaignSpec{Example: "crowdsale"}); err != nil {
		t.Fatal(err)
	}
	svc.Drain()
	if _, err := svc.Submit(CampaignSpec{Example: "crowdsale"}); err == nil {
		t.Fatal("submit after drain must fail")
	}
	if n := svc.Drain(); n != 0 {
		t.Fatalf("second drain drained %d", n)
	}
}

// TestDrainImmediatelyAfterSubmitLosesNothing is the drain-race regression:
// a campaign drained before (or while) its very first slice runs must come
// back on restart and finish — never be misclassified as done with zero
// executions.
func TestDrainImmediatelyAfterSubmitLosesNothing(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 5; round++ {
		svc, _ := startService(t, openStoreT(t, dir), Config{Slots: 1, SliceRounds: 1})
		id := fmt.Sprintf("c%04d", round+1)
		st, err := svc.Submit(CampaignSpec{Example: "crowdsale", Iterations: 300})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 && st.ID != id {
			t.Fatalf("unexpected id %s", st.ID)
		}
		svc.Drain() // races the first slice on purpose
		got, _ := svc.Status(st.ID)
		if got.State == StateDone && got.Executions < 300 {
			t.Fatalf("round %d: campaign marked done with %d/300 executions", round, got.Executions)
		}
		// Restart: every campaign submitted so far must eventually finish
		// its full budget.
		svc2, _ := startService(t, openStoreT(t, dir), Config{Slots: 1, SliceRounds: 1})
		waitFor(t, 60*time.Second, "all campaigns complete after restart", func() bool {
			for _, s := range svc2.Statuses() {
				if s.State != StateDone || s.Executions < 300 {
					return false
				}
			}
			return len(svc2.Statuses()) == round+1
		})
		svc2.Drain()
	}
}

// TestSchedulerFairness checks the bounded pool multiplexes many campaigns:
// with one slot, several concurrent campaigns all make progress.
func TestSchedulerFairness(t *testing.T) {
	svc, ts := startService(t, openStoreT(t, t.TempDir()), Config{Slots: 1, SliceRounds: 2})
	defer svc.Drain()
	var ids []string
	for i := 0; i < 4; i++ {
		var st Status
		postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{
			Source: corpus.Crowdsale(), Seed: int64(i + 1), Iterations: 2000,
		}, &st)
		ids = append(ids, st.ID)
	}
	waitFor(t, 120*time.Second, "all campaigns finish on one slot", func() bool {
		var list []Status
		getJSON(t, ts.URL+"/v1/campaigns", &list)
		done := 0
		for _, st := range list {
			if st.State == StateDone {
				done++
			}
		}
		return done == len(ids)
	})
	var list []Status
	getJSON(t, ts.URL+"/v1/campaigns", &list)
	for _, st := range list {
		if st.Executions < 2000 {
			t.Fatalf("campaign %s starved: %+v", st.ID, st)
		}
	}
}

// TestImportSeedsReadOnlyCandidates fills a bucket with more seeds than one
// slice imports, corrupts one in the middle and plants one that does not
// decode, and checks that each slice marks exactly the seeds the full List
// walk marked: a decode failure is marked but not counted, a corrupt object
// is neither.
func TestImportSeedsReadOnlyCandidates(t *testing.T) {
	st := openStoreT(t, t.TempDir())
	const limit = 3
	svc := New(Config{Store: st, ImportPerSlice: limit})
	status, err := svc.Submit(CampaignSpec{Example: "crowdsale-buggy", Seed: 1, Iterations: 1000})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := svc.job(status.ID)
	valid := fuzz.EncodeSequence(fuzz.Sequence{{Func: fuzz.CtorName}})
	var names []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("%02x", i)
		names = append(names, name)
		payload := valid
		if i == 2 {
			payload = []byte("not a sequence")
		}
		if _, err := st.PutSeed(j.contract, name, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(st.Root(), string(store.KindSeed), j.contract, names[5]), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	j.exported[names[1]] = true

	for slice := 0; ; slice++ {
		// The full-List selection, applied to a copy of the marks.
		want := make(map[string]bool)
		for k := range j.imported {
			want[k] = true
		}
		entries, err := st.Seeds(j.contract)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, e := range entries {
			if n >= limit {
				break
			}
			if want[e.Name] || j.exported[e.Name] {
				continue
			}
			want[e.Name] = true
			if _, err := fuzz.DecodeSequence(e.Payload); err == nil {
				n++
			}
		}
		before := len(j.imported)
		svc.importSeeds(j)
		if !reflect.DeepEqual(j.imported, want) {
			t.Fatalf("slice %d: marked %v, full-List selection %v", slice, j.imported, want)
		}
		if len(j.imported) == before {
			break
		}
	}
	if j.imported[names[5]] || !j.imported[names[2]] {
		t.Fatalf("corrupt seed marked or undecodable seed unmarked: %v", j.imported)
	}
}
