package repro

// Behavioral-equivalence golden: a digest of everything a run produces
// except the kernel's own counters, for a spread of configurations that
// exercise every protocol path. Event-loop optimizations (which events get
// scheduled, how the queue orders them) may move Output.Kernel, and nothing
// else. The outputs it pins predate the idle-housekeeping and inline-heap-key
// changes; regenerate it only for an intentional behavior change:
//
//	go test -run TestOutputEquivalenceGolden -update .

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/diffusion"
	"repro/internal/failure"
	"repro/internal/topology"
)

// equivalenceConfigs names the configurations the golden covers: both
// schemes, Fig 6 failure waves, chaos with crash-amnesia, walk mobility
// with the self-healing layer on, and a multi-sink field.
func equivalenceConfigs() []struct {
	name string
	cfg  core.Config
} {
	base := func(s core.Scheme, nodes int, seed int64) core.Config {
		cfg := core.DefaultConfig()
		cfg.Scheme = s
		cfg.Nodes = nodes
		cfg.Seed = seed
		cfg.Duration = 100 * time.Second
		return cfg
	}
	var out []struct {
		name string
		cfg  core.Config
	}
	add := func(name string, cfg core.Config) {
		out = append(out, struct {
			name string
			cfg  core.Config
		}{name, cfg})
	}
	for _, s := range []core.Scheme{core.SchemeGreedy, core.SchemeOpportunistic} {
		add("plain-"+s.String(), base(s, 150, 3))

		cfg := base(s, 120, 5)
		fc := failure.DefaultConfig()
		cfg.Failures = &fc
		add("fig6-"+s.String(), cfg)

		cfg = base(s, 100, 11)
		cfg.Chaos = &chaos.Config{
			Amnesia:         chaos.AmnesiaConfig{MeanInterval: 4 * time.Second, Downtime: 3 * time.Second},
			CheckInvariants: true,
		}
		add("amnesia-"+s.String(), cfg)

		cfg = base(s, 200, 13)
		cfg.Workload.Sinks = 4
		add("multisink-"+s.String(), cfg)
	}
	cfg := base(core.SchemeGreedy, 120, 17)
	cfg.Mobility = topology.DefaultMobilityConfig(topology.MobilityWalk)
	cfg.Diffusion.Repair = diffusion.DefaultRepairParams()
	cfg.Diffusion.Repair.Enabled = true
	add("walk-repair-greedy", cfg)
	return out
}

func equivalenceLines(t *testing.T) []byte {
	t.Helper()
	var b strings.Builder
	for _, c := range equivalenceConfigs() {
		out, err := core.Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out.Kernel = core.KernelStats{}
		h := sha256.New()
		digestValue(h, reflect.ValueOf(out))
		fmt.Fprintf(&b, "%s %s\n", c.name, hex.EncodeToString(h.Sum(nil))[:16])
	}
	return []byte(b.String())
}

// digestValue writes a canonical rendering of v: floats by bit pattern (so
// NaN and signed zero are exact), maps in rendered-key order, pointers and
// interfaces by what they point at. Unexported fields are included. Struct
// fields holding their zero value are skipped: for a fixed type the
// rendering stays injective, and deleting a field that is always zero
// leaves every digest unchanged.
func digestValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x;", math.Float64bits(v.Float()))
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			digestValue(w, v.Index(i))
		}
		io.WriteString(w, "]")
	case reflect.Map:
		type kv struct{ k, v string }
		pairs := make([]kv, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			var kb, vb strings.Builder
			digestValue(&kb, iter.Key())
			digestValue(&vb, iter.Value())
			pairs = append(pairs, kv{kb.String(), vb.String()})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
		fmt.Fprintf(w, "{%d:", len(pairs))
		for _, p := range pairs {
			io.WriteString(w, p.k+"="+p.v)
		}
		io.WriteString(w, "}")
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		if v.Kind() == reflect.Interface {
			fmt.Fprintf(w, "%s:", v.Elem().Type())
		}
		digestValue(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "(")
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).IsZero() {
				continue
			}
			io.WriteString(w, v.Type().Field(i).Name+"=")
			digestValue(w, v.Field(i))
		}
		io.WriteString(w, ")")
	default:
		// Funcs and channels carry no model output; record only presence.
		fmt.Fprintf(w, "%s:%t;", v.Kind(), !v.IsNil())
	}
}

// TestOutputEquivalenceGolden asserts every run output other than the
// kernel counters matches the capture taken before the event-loop changes.
func TestOutputEquivalenceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("nine full simulations; skipped with -short")
	}
	compareGolden(t, filepath.Join("testdata", "equivalence.golden.txt"), equivalenceLines(t))
}
