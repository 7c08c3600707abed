package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/shc-go/shc/internal/plan"
	"github.com/shc-go/shc/internal/tpcds"
)

// Statements the workloads run besides the tpcds package's own queries.
const (
	filterSQL    = "SELECT ss_item_sk FROM store_sales WHERE ss_quantity > 10"
	aggSQL       = "SELECT count(1), sum(ss_quantity), min(ss_item_sk), max(ss_item_sk) FROM store_sales"
	invariantSQL = "SELECT count(1), sum(ss_quantity) FROM store_sales WHERE ss_quantity > 10"
)

// check is one statement with the answer it must return. Every answer is
// computed in plain Go from the generated tpcds.Data, never by asking the
// system under test.
type check struct {
	name    string
	sql     string
	want    []plan.Row
	ordered bool // the statement has an ORDER BY covering its output
}

// verify compares a returned row set with the reference answer. Integers
// must match exactly; floats within a relative 1e-9, which absorbs the
// summation-order differences of a parallel aggregate.
func (c check) verify(got []plan.Row) error {
	if len(got) != len(c.want) {
		return fmt.Errorf("%s: %d rows, want %d", c.name, len(got), len(c.want))
	}
	g, w := got, c.want
	if !c.ordered {
		g, w = sortedRows(got), sortedRows(c.want)
	}
	for i := range w {
		if len(g[i]) != len(w[i]) {
			return fmt.Errorf("%s: row %d has %d columns, want %d", c.name, i, len(g[i]), len(w[i]))
		}
		for j := range w[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return fmt.Errorf("%s: row %d column %d = %v, want %v", c.name, i, j, g[i][j], w[i][j])
			}
		}
	}
	return nil
}

func sortedRows(rows []plan.Row) []plan.Row {
	out := append([]plan.Row(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if c, err := plan.Compare(a[k], b[k]); err == nil && c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
	return out
}

func sameValue(a, b any) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if ia, ok := asInt(a); ok {
		if ib, ok := asInt(b); ok {
			return ia == ib
		}
	}
	fa, okA := plan.ToFloat(a)
	fb, okB := plan.ToFloat(b)
	if okA && okB {
		return math.Abs(fa-fb) <= 1e-9*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb)))
	}
	return a == b
}

func asInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int:
		return int64(x), true
	case int32:
		return int64(x), true
	case int64:
		return x, true
	}
	return 0, false
}

// reference holds the precomputed answers for one generated dataset.
type reference struct {
	stream    []check         // q39a, q39b, q38, the filter scan, the aggregate
	lookups   map[int32]check // by i_item_sk
	itemKeys  []int32         // every i_item_sk, ascending
	invariant check           // the scan-under-write reader's statement
}

func newReference(d *tpcds.Data) *reference {
	r := &reference{lookups: make(map[int32]check, len(d.Item))}
	r.stream = []check{
		{name: "q39a", sql: tpcds.Q39a(), want: refQ39(d, 1.0), ordered: true},
		{name: "q39b", sql: tpcds.Q39b(), want: refQ39(d, 1.5), ordered: true},
		{name: "q38", sql: tpcds.Q38(), want: refQ38(d)},
		{name: "filter", sql: filterSQL, want: refFilter(d)},
		{name: "agg", sql: aggSQL, want: refAgg(d)},
	}
	for _, it := range d.Item {
		sk := it[0].(int32)
		r.itemKeys = append(r.itemKeys, sk)
		r.lookups[sk] = check{
			name: "lookup", sql: tpcds.PointLookup(int(sk)),
			want: []plan.Row{{it[2], it[3]}},
		}
	}
	sort.Slice(r.itemKeys, func(i, j int) bool { return r.itemKeys[i] < r.itemKeys[j] })
	var n, sum int64
	for _, s := range d.StoreSales {
		if q := s[4].(int32); q > 10 {
			n++
			sum += int64(q)
		}
	}
	r.invariant = check{name: "invariant", sql: invariantSQL, want: []plan.Row{{n, sum}}}
	return r
}

// refQ39 restates tpcds.Q39a/Q39b: per (warehouse, item), the mean and
// coefficient of variation of stock in January and in February of 2001,
// kept where both months exceed minCov, ordered by warehouse then item.
func refQ39(d *tpcds.Data, minCov float64) []plan.Row {
	type key struct{ w, i int32 }
	type stat struct{ mean, cov float64 }
	dates := make(map[int32][2]int32) // d_date_sk -> (d_year, d_moy)
	for _, r := range d.DateDim {
		dates[r[0].(int32)] = [2]int32{r[4].(int32), r[3].(int32)}
	}
	items := make(map[int32]bool)
	for _, r := range d.Item {
		items[r[0].(int32)] = true
	}
	whs := make(map[int32]bool)
	for _, r := range d.Warehouse {
		whs[r[0].(int32)] = true
	}
	month := func(moy int32) map[key]stat {
		lo, hi := (moy-1)*30+1, moy*30
		qty := make(map[key][]float64)
		for _, r := range d.Inventory {
			date, item, wh := r[0].(int32), r[1].(int32), r[2].(int32)
			if date < lo || date > hi || dates[date] != [2]int32{2001, moy} || !items[item] || !whs[wh] {
				continue
			}
			k := key{wh, item}
			qty[k] = append(qty[k], float64(r[3].(int32)))
		}
		out := make(map[key]stat)
		for k, vs := range qty {
			var sum float64
			for _, v := range vs {
				sum += v
			}
			mean := sum / float64(len(vs))
			var cov float64
			if mean != 0 {
				if len(vs) < 2 {
					continue // stddev_samp is NULL, so the HAVING test is not true
				}
				var ss float64
				for _, v := range vs {
					ss += (v - mean) * (v - mean)
				}
				cov = math.Sqrt(ss/float64(len(vs)-1)) / mean
			}
			if cov > minCov {
				out[k] = stat{mean, cov}
			}
		}
		return out
	}
	jan, feb := month(1), month(2)
	var keys []key
	for k := range jan {
		if _, ok := feb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].w != keys[b].w {
			return keys[a].w < keys[b].w
		}
		return keys[a].i < keys[b].i
	})
	rows := make([]plan.Row, 0, len(keys))
	for _, k := range keys {
		a, b := jan[k], feb[k]
		rows = append(rows, plan.Row{k.w, k.i, a.mean, a.cov, b.mean, b.cov})
	}
	return rows
}

// refQ38 restates tpcds.Q38: customers who bought in both channels during
// month_seq 1200..1201 (date_sk 1..60).
func refQ38(d *tpcds.Data) []plan.Row {
	seq := make(map[int32]int32)
	for _, r := range d.DateDim {
		seq[r[0].(int32)] = r[2].(int32)
	}
	inWindow := func(date int32) bool {
		s, ok := seq[date]
		return date >= 1 && date <= 60 && ok && s >= 1200 && s <= 1201
	}
	store := make(map[int32]bool)
	for _, r := range d.StoreSales {
		if inWindow(r[0].(int32)) {
			store[r[2].(int32)] = true
		}
	}
	both := make(map[int32]bool)
	for _, r := range d.WebSales {
		if c := r[2].(int32); inWindow(r[0].(int32)) && store[c] {
			both[c] = true
		}
	}
	return []plan.Row{{int64(len(both))}}
}

func refFilter(d *tpcds.Data) []plan.Row {
	var rows []plan.Row
	for _, r := range d.StoreSales {
		if r[4].(int32) > 10 {
			rows = append(rows, plan.Row{r[3]})
		}
	}
	return rows
}

func refAgg(d *tpcds.Data) []plan.Row {
	var n, sum int64
	lo, hi := int32(math.MaxInt32), int32(math.MinInt32)
	for _, r := range d.StoreSales {
		n++
		sum += int64(r[4].(int32))
		item := r[3].(int32)
		if item < lo {
			lo = item
		}
		if item > hi {
			hi = item
		}
	}
	return []plan.Row{{n, sum, lo, hi}}
}
