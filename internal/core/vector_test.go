package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/shc-go/shc/internal/datasource"
	"github.com/shc-go/shc/internal/metrics"
	"github.com/shc-go/shc/internal/plan"
)

// collectVectorPath drains a partition through ComputeVectors, boxing every
// batch row back out — the representation the pipeline's output sees.
func collectVectorPath(t *testing.T, p datasource.Partition, opts datasource.BatchOptions) []plan.Row {
	t.Helper()
	var out []plan.Row
	err := p.ComputeVectors(context.Background(), opts, func(b *plan.Batch) error {
		for i := 0; i < b.Len(); i++ {
			r, err := b.MaterializeRow(i)
			if err != nil {
				return err
			}
			out = append(out, r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wantPartition computes, in plain Go over the rig's inserted rows, what
// partition p streams: each op's key range in op order, keys ascending,
// capped at limit rows overall (0 = no cap), projected onto cols.
func (rig *testRig) wantPartition(t *testing.T, p datasource.Partition, cols []string, limit int) []plan.Row {
	t.Helper()
	type keyed struct {
		key []byte
		row plan.Row
	}
	schema := rig.cat.Schema()
	var sorted []keyed
	for _, r := range rig.rows {
		key, err := rig.rel.codec.encodeRowkey(r[:len(rig.cat.RowkeyFields())])
		if err != nil {
			t.Fatal(err)
		}
		proj := make(plan.Row, len(cols))
		for j, c := range cols {
			proj[j] = r[schema.IndexOf(c)]
		}
		sorted = append(sorted, keyed{key, proj})
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i].key, sorted[j].key) < 0 })
	var out []plan.Row
	for _, op := range p.(*hbasePartition).ops {
		for _, k := range sorted {
			if bytes.Compare(k.key, op.Scan.StartRow) >= 0 &&
				(len(op.Scan.StopRow) == 0 || bytes.Compare(k.key, op.Scan.StopRow) < 0) {
				out = append(out, k.row)
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// TestComputeVectorsMatchesRowPath pins the columnar decode layer: every
// partition of a fused scan, streamed as column batches — eager, partially
// lazy, in small pages, and with a limit hint — materializes exactly the
// rows inserted into its key ranges, in key order, rowkey-backed columns
// included.
func TestComputeVectorsMatchesRowPath(t *testing.T) {
	rig := newRig(t, Options{}, 700)
	cols := []string{"id", "age", "city", "score"}
	parts, err := rig.rel.BuildScan(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 2 {
		t.Fatalf("want multiple partitions, got %d", len(parts))
	}
	optVariants := []struct {
		name string
		opts datasource.BatchOptions
	}{
		{"all-eager", datasource.BatchOptions{}},
		{"lazy-tail", datasource.BatchOptions{EagerColumns: []int{1}}}, // only age eager
		{"small-batches", datasource.BatchOptions{BatchSize: 7}},
		{"limit-hint", datasource.BatchOptions{LimitHint: 13}},
	}
	for _, v := range optVariants {
		var want, got []plan.Row
		for _, p := range parts {
			want = append(want, rig.wantPartition(t, p, cols, v.opts.LimitHint)...)
			got = append(got, collectVectorPath(t, p, v.opts)...)
		}
		if len(want) == 0 {
			t.Fatalf("%s: reference holds no rows", v.name)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: vector path differs from the inserted rows (%d vs %d rows)", v.name, len(got), len(want))
		}
	}
	if rig.meter.Get(metrics.FusedPages) == 0 {
		t.Error("no fused page was read; the CellBlock path never engaged")
	}
}

// TestStreamPartitionRowsSurvivePooledBatchReuse pins the row adapter's
// ownership contract: rows collected from a multi-page partition stay
// unchanged after later pages refill the pooled column batch, because each
// page boxes into its own slab.
func TestStreamPartitionRowsSurvivePooledBatchReuse(t *testing.T) {
	rig := newRig(t, Options{}, 200)
	cols := []string{"id", "age", "city", "score"}
	parts, err := rig.rel.BuildScan(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		var kept []plan.Row
		var snapshots []plan.Row
		pages := 0
		err := datasource.StreamPartition(context.Background(), p, datasource.BatchOptions{BatchSize: 5}, func(rows []plan.Row) error {
			pages++
			for _, r := range rows {
				kept = append(kept, r)
				snapshots = append(snapshots, append(plan.Row{}, r...))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if pages < 3 {
			t.Fatalf("partition %d streamed %d pages; want a multi-page stream", p.Index(), pages)
		}
		if !reflect.DeepEqual(kept, snapshots) {
			t.Fatalf("partition %d: kept rows changed after later pages reused the batch", p.Index())
		}
		if want := rig.wantPartition(t, p, cols, 0); !reflect.DeepEqual(kept, want) {
			t.Fatalf("partition %d: adapter rows differ from the inserted rows (%d vs %d)", p.Index(), len(kept), len(want))
		}
	}
}

// TestVectorBatchPoolReuse is the allocs/op assertion for the fused pager's
// batch pool: once warm, a get/put cycle for the same scan shape must reuse
// the pooled batch outright and allocate nothing per batch.
func TestVectorBatchPoolReuse(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop a fraction of Puts on
		// purpose, so neither pointer reuse nor the alloc count below is
		// deterministic under -race.
		t.Skip("sync.Pool sheds Puts under the race detector")
	}
	rig := newRig(t, Options{}, 0)
	specs, schema, lazyDec := rig.rel.vecSpecs([]string{"id", "age", "score"}, []int{1})
	warm := getBatch(schema, specs, lazyDec)
	warm.Cols[0].AppendRaw([]byte("k"))
	warm.Cols[1].AppendInt64(1)
	warm.Cols[2].AppendRaw([]byte("v"))
	warm.SetLen(1)
	putBatch(warm)
	got := getBatch(schema, specs, lazyDec)
	if got != warm {
		t.Fatal("pool handed back a different batch for the same shape")
	}
	if got.Len() != 0 || got.Cols[1].Len() != 0 {
		t.Fatal("pooled batch came back dirty")
	}
	putBatch(got)
	allocs := testing.AllocsPerRun(200, func() {
		b := getBatch(schema, specs, lazyDec)
		b.Cols[0].AppendRaw([]byte("k"))
		b.Cols[1].AppendInt64(1)
		b.SetLen(1)
		putBatch(b)
	})
	// One allocation of slack for pool internals; the point is that batch
	// and vector construction (4+ allocations each) no longer happen per
	// batch.
	if allocs > 1 {
		t.Errorf("get/put cycle allocates %.1f objects per batch, want <= 1", allocs)
	}
}

// TestVectorScanFollowsRegionMove pins cursor-exact resume on the columnar
// pager: draining a server mid-scan (regions move, epochs bump) must not
// lose, duplicate, or reorder rows relative to the rows inserted into each
// partition's key ranges.
func TestVectorScanFollowsRegionMove(t *testing.T) {
	rig := newRig(t, Options{}, 400)
	cols := []string{"id", "age"}
	parts, err := rig.rel.BuildScan(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]plan.Row)
	for i, p := range parts {
		want[i] = rig.wantPartition(t, p, cols, 0)
	}
	// Small pages so the drain lands between pages of an in-flight scan.
	drained := false
	for i, p := range parts {
		var got []plan.Row
		pages := 0
		err := p.ComputeVectors(context.Background(), datasource.BatchOptions{BatchSize: 32}, func(b *plan.Batch) error {
			pages++
			if pages == 2 && !drained {
				drained = true
				drainPartitionHost(t, rig)
			}
			for j := 0; j < b.Len(); j++ {
				r, err := b.MaterializeRow(j)
				if err != nil {
					return err
				}
				got = append(got, r)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("partition %d: rows diverged after region move (%d vs %d)", i, len(got), len(want[i]))
		}
	}
	if !drained {
		t.Fatal("scan finished before the drain fired; shrink the batch size")
	}
}

// drainPartitionHost gracefully drains the server hosting the first users
// region, relocating its regions under bumped epochs.
func drainPartitionHost(t *testing.T, rig *testRig) {
	t.Helper()
	regions, err := rig.client.Regions("users")
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.cluster.Master.DrainServer(regions[0].Host); err != nil {
		t.Fatal(err)
	}
}

// TestFusedBlockCarriesEmptyStringAndNewestVersion pins what the fused
// page's one format must carry on a single page: an empty string decodes
// as the empty string rather than NULL, and a MaxVersions 3 relation over
// three written versions of a row reads the newest.
func TestFusedBlockCarriesEmptyStringAndNewestVersion(t *testing.T) {
	rig := newRig(t, Options{NewTableRegions: 1, MaxVersions: 3}, 0)
	for i, ts := range []int64{10, 20, 30} {
		rel, err := NewHBaseRelation(rig.client, rig.cat, Options{WriteTimestamp: ts, MaxVersions: 3, NewTableRegions: 1}, rig.meter)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Insert([]plan.Row{{"k", int32(i), fmt.Sprintf("v%d", i), float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rig.rel.Insert([]plan.Row{{"e", int32(7), "", 1.5}}); err != nil {
		t.Fatal(err)
	}
	cols := []string{"id", "age", "city", "score"}
	parts, err := rig.rel.BuildScan(cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 {
		t.Fatalf("partitions = %d, want 1", len(parts))
	}
	p := parts[0].(*hbasePartition)
	resp, err := newFusedPager(p, p.ops, defaultFusedBatch).next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Block == nil || resp.Results != nil || resp.More || resp.Block.Len() != 2 {
		t.Fatalf("page = %+v, want one CellBlock holding both rows", resp)
	}
	before := rig.meter.Get(metrics.FusedPages)
	got := collectVectorPath(t, p, datasource.BatchOptions{})
	if pages := rig.meter.Get(metrics.FusedPages) - before; pages != 1 {
		t.Errorf("fused pages = %d, want 1", pages)
	}
	want := []plan.Row{{"e", int32(7), "", 1.5}, {"k", int32(2), "v2", float64(2)}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rows = %#v, want %#v", got, want)
	}
}
