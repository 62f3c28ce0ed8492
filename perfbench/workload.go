package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sstore/internal/linearroad"
	"sstore/internal/pe"
	"sstore/internal/server"
	"sstore/internal/types"
	"sstore/internal/workflow"
)

// conns is the number of client connections, equal to the two cores
// the benchmark was sized on. Connection c owns the keys of partition
// c, so its batch IDs are monotone per (stream, partition) ledger shard.
const conns = 2

// opEvery is how many batches a connection sends between its OLTP
// call and snapshot read.
const opEvery = 10

// sensorsPerConn is how many pipeline sensors each connection owns.
const sensorsPerConn = 8

// workload is one traffic mix against one built-in server app.
type workload struct {
	name     string
	app      string // sstore-server -app
	recovery string // sstore-server -recovery
	stream   string // border stream every batch enters
	// openRate is the open-loop offered rate in batches/s across both
	// connections: about 27% of the closed-loop capacity measured on a
	// 2-vCPU container. It is fixed here, never derived at run time.
	openRate float64
	// capacity is the closed-loop batches/s measured on that container.
	// It sizes the closed-loop phase as a batch count, so every run ends
	// with the same state size (and so comparable memory) however fast
	// the host let it go.
	capacity float64
	newGen   func(seed int64, conn int) opGen
}

var workloads = map[string]*workload{
	"pipeline-none": {
		name: "pipeline-none", app: "pipeline", recovery: "none",
		stream: "raw_readings", openRate: 8000, capacity: 30000, newGen: newPipelineGen,
	},
	"pipeline-strong": {
		name: "pipeline-strong", app: "pipeline", recovery: "strong",
		stream: "raw_readings", openRate: 2000, capacity: 5000, newGen: newPipelineGen,
	},
	"linearroad": {
		name: "linearroad", app: "linearroad", recovery: "none",
		stream: linearroad.StreamReports, openRate: 6000, capacity: 22000, newGen: newLinearRoadGen,
	},
}

type opKind uint8

const (
	opIngest opKind = iota
	opCall
	opRead
)

// op is one client request.
type op struct {
	kind   opKind
	batch  int64       // ingest: batch ID
	rows   []types.Row // ingest: the batch
	key    int64       // sensor (pipeline) or x-way (linearroad) the op touches
	sp     string      // call
	sql    string      // read
	pid    int         // read: partition
	params types.Row   // call and read
}

// opGen produces one connection's requests as slots: an ingested batch,
// followed every opEvery batches by the connection's call and read.
type opGen interface {
	next() []op
}

type pipelineGen struct {
	rng   *rand.Rand
	conn  int
	batch int64
}

func newPipelineGen(seed int64, conn int) opGen {
	return &pipelineGen{rng: rand.New(rand.NewPCG(uint64(seed), uint64(conn))), conn: conn}
}

// pipelineSensor is the i-th sensor connection conn owns; sensors route
// to partition sensor mod conns.
func pipelineSensor(conn, i int) int64 { return int64(conn + conns*i) }

func (g *pipelineGen) next() []op {
	g.batch++
	sensor := pipelineSensor(g.conn, g.rng.IntN(sensorsPerConn))
	// Values stay inside Clean's accepted range, so every acked batch
	// reaches Aggregate and Report's n counts acked batches exactly.
	value := int64(g.rng.IntN(1001))
	ops := []op{{kind: opIngest, batch: g.batch, key: sensor,
		rows: []types.Row{{types.NewInt(sensor), types.NewInt(value)}}}}
	if g.batch%opEvery == 0 {
		p := types.Row{types.NewInt(sensor)}
		ops = append(ops,
			op{kind: opCall, key: sensor, sp: "Report", params: p},
			op{kind: opRead, key: sensor, pid: g.conn, sql: "SELECT n, total FROM averages WHERE sensor = ?", params: p})
	}
	return ops
}

type linearRoadGen struct {
	gen   *linearroad.Generator
	conn  int
	batch int64
}

// newLinearRoadGen gives every connection the same report sequence and
// keeps the x-ways of the connection's partition, so the two streams
// together are exactly one generator's output.
func newLinearRoadGen(seed int64, conn int) opGen {
	return &linearRoadGen{gen: linearroad.NewGenerator(seed, lrConfig), conn: conn}
}

var lrConfig = linearroad.Config{XWays: server.LinearRoadXWays}

func (g *linearRoadGen) next() []op {
	r := g.gen.Next()
	for int(r.XWay)%conns != g.conn {
		r = g.gen.Next()
	}
	g.batch++
	ops := []op{{kind: opIngest, batch: g.batch, key: r.XWay, rows: []types.Row{r.Row()}}}
	if g.batch%opEvery == 0 {
		ops = append(ops, op{kind: opRead, key: r.XWay, pid: g.conn,
			sql: "SELECT balance FROM vehicles WHERE vid = ?", params: types.Row{types.NewInt(r.VID)}})
	}
	return ops
}

// appSetup installs the workload's app on an in-process engine, passing
// every stored procedure through wrap first.
func (w *workload) appSetup(eng *pe.Engine, wrap func(*pe.StoredProc) *pe.StoredProc) error {
	if w.app == "pipeline" {
		return pipelineSetup(eng, wrap)
	}
	return linearRoadSetup(eng, wrap)
}

// engineOptions returns the routing the built-in server app uses.
func (w *workload) engineOptions() (pe.Options, error) {
	app, err := server.LookupApp(w.app)
	if err != nil {
		return pe.Options{}, err
	}
	return pe.Options{Partitions: conns, PartitionBy: app.PartitionBy, RouteCall: app.RouteCall}, nil
}

// pipelineSetup re-declares server.PipelineApp with identical SQL: the
// built-in procedures are closures the traced run cannot wrap.
// TestPipelineCopyMatchesBuiltin holds the two equal.
func pipelineSetup(eng *pe.Engine, wrap func(*pe.StoredProc) *pe.StoredProc) error {
	for _, ddl := range []string{
		"CREATE STREAM raw_readings (sensor BIGINT, value BIGINT)",
		"CREATE STREAM clean_readings (sensor BIGINT, value BIGINT)",
		"CREATE TABLE averages (sensor BIGINT PRIMARY KEY, n BIGINT, total BIGINT)",
	} {
		if err := eng.ExecDDL(ddl); err != nil {
			return err
		}
	}
	procs := []*pe.StoredProc{
		{Name: "Clean", Func: func(ctx *pe.ProcCtx) error {
			_, err := ctx.Query(
				"INSERT INTO clean_readings SELECT sensor, value FROM raw_readings WHERE value >= 0 AND value <= 1000")
			return err
		}},
		{Name: "Aggregate", Func: func(ctx *pe.ProcCtx) error {
			rows, err := ctx.Query("SELECT sensor, value FROM clean_readings")
			if err != nil {
				return err
			}
			for _, r := range rows.Rows {
				existing, err := ctx.Query("SELECT n FROM averages WHERE sensor = ?", r[0])
				if err != nil {
					return err
				}
				if len(existing.Rows) == 0 {
					_, err = ctx.Query("INSERT INTO averages VALUES (?, 1, ?)", r[0], r[1])
				} else {
					_, err = ctx.Query(
						"UPDATE averages SET n = n + 1, total = total + ? WHERE sensor = ?", r[1], r[0])
				}
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{Name: "Report", Func: func(ctx *pe.ProcCtx) error {
			res, err := ctx.Query(
				"SELECT sensor, total / n AS avg, n FROM averages WHERE sensor = ?", ctx.Params()[0])
			if err != nil {
				return err
			}
			ctx.SetResult(res)
			return nil
		}},
	}
	for _, sp := range procs {
		if err := eng.RegisterProc(wrap(sp)); err != nil {
			return err
		}
	}
	wf, err := workflow.New("pipeline", []workflow.Node{
		{SP: "Clean", Input: "raw_readings", Outputs: []string{"clean_readings"}},
		{SP: "Aggregate", Input: "clean_readings"},
	})
	if err != nil {
		return err
	}
	return eng.DeployWorkflow(wf)
}

// linearRoadSetup mirrors server.LinearRoadApp on a single node.
func linearRoadSetup(eng *pe.Engine, wrap func(*pe.StoredProc) *pe.StoredProc) error {
	seed := func(xway int, stmt string) error {
		_, err := eng.AdHoc(xway%eng.Partitions(), stmt)
		return err
	}
	if err := linearroad.SetupSchema(eng, lrConfig, seed); err != nil {
		return err
	}
	for _, sp := range linearroad.Procs(lrConfig) {
		if err := eng.RegisterProc(wrap(sp)); err != nil {
			return err
		}
	}
	wf, err := linearroad.Workflow()
	if err != nil {
		return err
	}
	return eng.DeployWorkflow(wf)
}

// reader is what the correctness gates query: a snapshot read on one
// partition and an OLTP call.
type reader interface {
	call(conn int, sp string, params types.Row) ([]types.Row, error)
	read(conn int, pid int, sql string, params types.Row) ([]types.Row, error)
}

// checkGate verifies the workload's end state against the batches
// acked per key:
//   - pipeline: Report(sensor).n equals the sensor's acked batches;
//   - linearroad: per x-way, Σ seg_stats.cnt + Σ stats_history.cnt
//     equals the reports acked.
func (w *workload) checkGate(r reader, acked map[int64]int64) error {
	if w.app == "pipeline" {
		for c := 0; c < conns; c++ {
			for i := 0; i < sensorsPerConn; i++ {
				s := pipelineSensor(c, i)
				rows, err := r.call(c, "Report", types.Row{types.NewInt(s)})
				if err != nil {
					return fmt.Errorf("gate: Report(%d): %w", s, err)
				}
				var n int64
				if len(rows) > 0 {
					n = rows[0][2].Int()
				}
				if n != acked[s] {
					return fmt.Errorf("gate: sensor %d: Report counts %d readings, %d batches were acked", s, n, acked[s])
				}
			}
		}
		return nil
	}
	for x := 0; x < lrConfig.XWays; x++ {
		var got int64
		for _, tbl := range []string{"seg_stats", "stats_history"} {
			rows, err := r.read(x%conns, x%conns, "SELECT SUM(cnt) FROM "+tbl+" WHERE xway = ?", types.Row{types.NewInt(int64(x))})
			if err != nil {
				return fmt.Errorf("gate: x-way %d %s: %w", x, tbl, err)
			}
			if len(rows) > 0 && !rows[0][0].IsNull() {
				got += rows[0][0].Int()
			}
		}
		if got != acked[int64(x)] {
			return fmt.Errorf("gate: x-way %d: statistics count %d reports, %d were acked", x, got, acked[int64(x)])
		}
	}
	return nil
}

// slotsFor is the per-connection batch count a closed loop sends in
// about d at the workload's measured capacity.
func (w *workload) slotsFor(d time.Duration) int {
	return int(w.capacity * d.Seconds() / conns)
}
