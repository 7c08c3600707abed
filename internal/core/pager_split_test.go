package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/hbase"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/rpc"
)

// TestFusedPagerResumesAcrossSplit splits the region a paged fused scan is
// walking between two pages. The old (region ID, cursor) pair is dead — the
// region no longer exists — so the pager must re-lookup by the cursor KEY,
// remap the remaining range onto the daughters, and finish with exactly the
// rows an undisturbed scan would have produced.
func TestFusedPagerResumesAcrossSplit(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1}, 60)
	cols := []string{"id", "age"}
	parts, err := rig.rel.BuildScan(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	baseline := rig.wantPartition(t, parts[0], cols, 0)
	if len(baseline) != 60 {
		t.Fatalf("baseline rows = %d", len(baseline))
	}
	p := parts[0].(*hbasePartition)
	pager := newFusedPager(p, p.ops, 10)
	ctx := context.Background()
	specs, schema, lazyDec := p.rel.vecSpecs(p.required, nil)
	batch := getBatch(schema, specs, lazyDec)

	var rows []plan.Row
	var scratch []any
	first := true
	for {
		resp, err := pager.next(ctx)
		if err != nil {
			t.Fatalf("paged fused scan across split: %v", err)
		}
		if resp == nil {
			break
		}
		batch.Reset()
		n := resp.Block.Len()
		if err := p.rel.decodeBlock(batch, specs, resp.Block, n, &scratch); err != nil {
			t.Fatal(err)
		}
		batch.SetLen(n)
		for i := 0; i < n; i++ {
			r, err := batch.MaterializeRow(i)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, r)
		}
		if first {
			first = false
			regions, err := rig.client.Regions("users")
			if err != nil {
				t.Fatal(err)
			}
			if err := rig.cluster.Master.SplitRegion("users", regions[0].ID); err != nil {
				t.Fatalf("split under pager: %v", err)
			}
		}
	}
	if len(rows) != len(baseline) {
		t.Fatalf("rows across split = %d, want %d", len(rows), len(baseline))
	}
	for i := range rows {
		if rows[i][0] != baseline[i][0] || rows[i][1] != baseline[i][1] {
			t.Fatalf("row %d = %v, want %v (order or content drifted)", i, rows[i], baseline[i])
		}
	}
}

// TestFusedScanStopsAtRetryDeadline points a partition scan at a server
// whose fused pages never succeed. The policy allows 1000 attempts but a
// 20ms Deadline: the pager must give up once the deadline passes, long
// before the attempts run out.
func TestFusedScanStopsAtRetryDeadline(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1}, 20)
	client := rig.cluster.NewClient(hbase.WithRetryPolicy(hbase.RetryPolicy{
		MaxAttempts: 1000, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
		Deadline: 20 * time.Millisecond,
	}))
	defer client.Close()
	rel, err := NewHBaseRelation(client, rig.cat, Options{NewTableRegions: 1}, rig.meter)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := rel.BuildScan([]string{"id", "age"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.cluster.Net.SetFaultInjector(rpc.NewFaultInjector(1, &rpc.FaultRule{Method: hbase.MethodFused, Drop: true}))
	err = parts[0].ComputeVectors(context.Background(), datasource.BatchOptions{}, func(*plan.Batch) error { return nil })
	if !errors.Is(err, rpc.ErrHostDown) {
		t.Fatalf("err = %v, want the host-down error once the deadline passed", err)
	}
	if got := rig.meter.Get(metrics.ClientRetries); got == 0 || got >= 500 {
		t.Errorf("client retries = %d, want a few: the 20ms deadline, not the 1000 attempts, must end the scan", got)
	}
}

func TestRemapOpScanSplitsAcrossFreshRegions(t *testing.T) {
	regions := []hbase.RegionInfo{
		{ID: "r1", EndKey: []byte("m"), Epoch: 3},
		{ID: "r2", StartKey: []byte("m"), Epoch: 4},
	}
	op := hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("c"), StopRow: []byte("x"), Limit: 7}}
	out := remapOp(op, regions)
	if len(out) != 2 {
		t.Fatalf("remapped ops = %d, want 2", len(out))
	}
	if out[0].RegionID != "r1" || out[0].Epoch != 3 ||
		!bytes.Equal(out[0].Scan.StartRow, []byte("c")) || !bytes.Equal(out[0].Scan.StopRow, []byte("m")) {
		t.Errorf("low op = %+v", out[0])
	}
	if out[1].RegionID != "r2" || out[1].Epoch != 4 ||
		!bytes.Equal(out[1].Scan.StartRow, []byte("m")) || !bytes.Equal(out[1].Scan.StopRow, []byte("x")) {
		t.Errorf("high op = %+v", out[1])
	}
	if out[0].Scan.Limit != 7 || out[1].Scan.Limit != 7 {
		t.Error("per-op limit must survive the remap")
	}
	// A range entirely outside the fresh regions' coverage folds to nothing.
	empty := remapOp(hbase.ScanOp{RegionID: "gone", Scan: &hbase.Scan{StartRow: []byte("x"), StopRow: []byte("x")}}, nil)
	if len(empty) != 0 {
		t.Errorf("no-region remap = %d ops", len(empty))
	}
}

func TestRemapOpRowsPartitionByContainingRegion(t *testing.T) {
	regions := []hbase.RegionInfo{
		{ID: "r1", EndKey: []byte("m")},
		{ID: "r2", StartKey: []byte("m")},
	}
	tmpl := &hbase.Scan{}
	op := hbase.ScanOp{RegionID: "gone", Rows: [][]byte{[]byte("a"), []byte("c"), []byte("n")}, Scan: tmpl}
	out := remapOp(op, regions)
	if len(out) != 2 {
		t.Fatalf("remapped ops = %d, want 2", len(out))
	}
	if out[0].RegionID != "r1" || len(out[0].Rows) != 2 {
		t.Errorf("low rows op = %+v", out[0])
	}
	if out[1].RegionID != "r2" || len(out[1].Rows) != 1 || !bytes.Equal(out[1].Rows[0], []byte("n")) {
		t.Errorf("high rows op = %+v", out[1])
	}
	if out[0].Scan != tmpl || out[1].Scan != tmpl {
		t.Error("bulk-get template must be carried through")
	}
}

func TestFoldCursorRewritesLeadOp(t *testing.T) {
	// Scan op: the cursor row becomes the op's own start row; Sent shrinks a
	// per-op limit.
	g := &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Scan: &hbase.Scan{StartRow: []byte("a"), StopRow: []byte("z"), Limit: 10}},
	}}
	g.cursor = hbase.FusedCursor{Row: []byte("k"), Sent: 4}
	g.foldCursor()
	if len(g.ops) != 1 || !bytes.Equal(g.ops[0].Scan.StartRow, []byte("k")) || g.ops[0].Scan.Limit != 6 {
		t.Errorf("folded scan op = %+v", g.ops[0])
	}
	if g.cursor.Row != nil || g.cursor.Sent != 0 {
		t.Error("cursor must be cleared after folding")
	}

	// A limit the cursor has already exhausted drops the op entirely.
	g = &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Scan: &hbase.Scan{Limit: 3}},
		{RegionID: "r2", Scan: &hbase.Scan{}},
	}}
	g.cursor = hbase.FusedCursor{Row: []byte("q"), Sent: 3}
	g.foldCursor()
	if len(g.ops) != 1 || g.ops[0].RegionID != "r2" {
		t.Errorf("exhausted lead op must drop: %+v", g.ops)
	}

	// Bulk get: rows already streamed are cut off the front.
	g = &fusedPager{ops: []hbase.ScanOp{
		{RegionID: "r1", Rows: [][]byte{[]byte("a"), []byte("b"), []byte("c")}},
	}}
	g.cursor = hbase.FusedCursor{RowIdx: 2}
	g.foldCursor()
	if len(g.ops) != 1 || len(g.ops[0].Rows) != 1 || !bytes.Equal(g.ops[0].Rows[0], []byte("c")) {
		t.Errorf("folded rows op = %+v", g.ops[0])
	}

	// The zero cursor folds to a no-op.
	g = &fusedPager{ops: []hbase.ScanOp{{RegionID: "r1", Scan: &hbase.Scan{StartRow: []byte("a")}}}}
	g.foldCursor()
	if !bytes.Equal(g.ops[0].Scan.StartRow, []byte("a")) {
		t.Error("zero cursor must not rewrite the op")
	}
}
