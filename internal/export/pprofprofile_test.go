package export

// The acceptance contract for the contention profile: the bytes `lockstats
// -pprof` writes (and /debug/pprof/contention serves) must decode as a
// valid pprof protobuf whose samples name real lock sites. The decoder
// below is a minimal hand-rolled reader of the same profile.proto subset
// the encoder emits — an independent implementation, so an encoding bug
// cannot cancel itself out the way re-using the encoder's tables would.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/jthread"
	"repro/internal/metrics"
)

// decodedProfile is the decoder's view of a profile.
type decodedProfile struct {
	strings     []string
	sampleTypes [][2]string // (type, unit)
	period      uint64
	periodType  [2]string
	samples     []decodedSample
	locations   map[uint64]decodedLocation
	functions   map[uint64]decodedFunction
}

type decodedSample struct {
	locationIDs []uint64
	values      []int64
	labels      map[string]string
}

type decodedLocation struct {
	address    uint64
	functionID uint64
	line       int64
}

type decodedFunction struct {
	name     string
	filename string
}

// uvarint reads one varint, returning the value and remaining bytes.
func uvarint(t *testing.T, b []byte) (uint64, []byte) {
	t.Helper()
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:]
		}
	}
	t.Fatal("truncated varint")
	return 0, nil
}

// fields splits a message into (fieldNumber, wireType0Value|nil, bytes|nil)
// triples, calling visit for each.
func fields(t *testing.T, msg []byte, visit func(field int, varint uint64, data []byte)) {
	t.Helper()
	for len(msg) > 0 {
		var key uint64
		key, msg = uvarint(t, msg)
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			var v uint64
			v, msg = uvarint(t, msg)
			visit(field, v, nil)
		case 2:
			var n uint64
			n, msg = uvarint(t, msg)
			if uint64(len(msg)) < n {
				t.Fatalf("truncated length-delimited field %d", field)
			}
			visit(field, 0, msg[:n])
			msg = msg[n:]
		default:
			t.Fatalf("unexpected wire type %d for field %d", wire, field)
		}
	}
}

func packedUints(t *testing.T, data []byte) []uint64 {
	var out []uint64
	for len(data) > 0 {
		var v uint64
		v, data = uvarint(t, data)
		out = append(out, v)
	}
	return out
}

// decodeProfile gunzips and parses a profile produced by ContentionProfile.
func decodeProfile(t *testing.T, gz []byte) *decodedProfile {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatalf("profile is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}

	p := &decodedProfile{
		locations: make(map[uint64]decodedLocation),
		functions: make(map[uint64]decodedFunction),
	}
	type vt struct{ typ, unit uint64 }
	var sampleTypes []vt
	var periodType vt
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels map[uint64]uint64
	}
	var rawSamples []rawSample

	fields(t, raw, func(field int, v uint64, data []byte) {
		switch field {
		case profStringTable:
			p.strings = append(p.strings, string(data))
		case profSampleType, profPeriodType:
			var cur vt
			fields(t, data, func(f int, v uint64, _ []byte) {
				switch f {
				case vtType:
					cur.typ = v
				case vtUnit:
					cur.unit = v
				}
			})
			if field == profSampleType {
				sampleTypes = append(sampleTypes, cur)
			} else {
				periodType = cur
			}
		case profPeriod:
			p.period = v
		case profSample:
			s := rawSample{labels: make(map[uint64]uint64)}
			fields(t, data, func(f int, _ uint64, d []byte) {
				switch f {
				case sampleLocationID:
					s.locs = packedUints(t, d)
				case sampleValue:
					s.vals = packedUints(t, d)
				case sampleLabel:
					var k, sv uint64
					fields(t, d, func(lf int, lv uint64, _ []byte) {
						switch lf {
						case labelKey:
							k = lv
						case labelStr:
							sv = lv
						}
					})
					s.labels[k] = sv
				}
			})
			rawSamples = append(rawSamples, s)
		case profLocation:
			var id uint64
			var loc decodedLocation
			fields(t, data, func(f int, v uint64, d []byte) {
				switch f {
				case locID:
					id = v
				case locAddress:
					loc.address = v
				case locLine:
					fields(t, d, func(lf int, lv uint64, _ []byte) {
						switch lf {
						case lineFunctionID:
							loc.functionID = lv
						case lineLine:
							loc.line = int64(lv)
						}
					})
				}
			})
			p.locations[id] = loc
		case profFunction:
			var id uint64
			var fn decodedFunction
			var nameID, fileID uint64
			fields(t, data, func(f int, v uint64, _ []byte) {
				switch f {
				case fnID:
					id = v
				case fnName:
					nameID = v
				case fnFilename:
					fileID = v
				}
			})
			fn.name = fmt.Sprintf("#%d", nameID)
			fn.filename = fmt.Sprintf("#%d", fileID)
			p.functions[id] = fn
		}
	})

	str := func(i uint64) string {
		if i >= uint64(len(p.strings)) {
			t.Fatalf("string index %d out of range (%d strings)", i, len(p.strings))
		}
		return p.strings[i]
	}
	for _, st := range sampleTypes {
		p.sampleTypes = append(p.sampleTypes, [2]string{str(st.typ), str(st.unit)})
	}
	p.periodType = [2]string{str(periodType.typ), str(periodType.unit)}
	for id, fn := range p.functions {
		var nameID, fileID uint64
		fmt.Sscanf(fn.name, "#%d", &nameID)
		fmt.Sscanf(fn.filename, "#%d", &fileID)
		p.functions[id] = decodedFunction{name: str(nameID), filename: str(fileID)}
	}
	for _, s := range rawSamples {
		ds := decodedSample{locationIDs: s.locs, labels: make(map[string]string)}
		for _, v := range s.vals {
			ds.values = append(ds.values, int64(v))
		}
		for k, v := range s.labels {
			ds.labels[str(k)] = str(v)
		}
		p.samples = append(p.samples, ds)
	}
	if len(p.strings) == 0 || p.strings[0] != "" {
		t.Fatal("string table must start with the empty string")
	}
	return p
}

// leafFunctions returns the distinct leaf-frame function names across
// samples.
func (p *decodedProfile) leafFunctions(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, s := range p.samples {
		if len(s.locationIDs) == 0 {
			t.Fatal("sample with no locations")
		}
		loc, ok := p.locations[s.locationIDs[0]]
		if !ok {
			t.Fatalf("sample references unknown location %d", s.locationIDs[0])
		}
		fn, ok := p.functions[loc.functionID]
		if !ok {
			t.Fatalf("location references unknown function %d", loc.functionID)
		}
		out[fn.name] = true
	}
	return out
}

// checkHeader asserts the mutex-profile-shaped sample types.
func (p *decodedProfile) checkHeader(t *testing.T) {
	t.Helper()
	want := [][2]string{{"contentions", "count"}, {"delay", "nanoseconds"}}
	if len(p.sampleTypes) != 2 || p.sampleTypes[0] != want[0] || p.sampleTypes[1] != want[1] {
		t.Fatalf("sample types = %v, want %v", p.sampleTypes, want)
	}
	if p.periodType != [2]string{"contentions", "count"} {
		t.Fatalf("period type = %v", p.periodType)
	}
	if p.period == 0 {
		t.Fatal("period missing")
	}
}

// contendedRun drives one backend through a deterministic
// hold/contend/release script built from *distinct named call paths* so
// site attribution has at least two user frames to find. The script works
// at GOMAXPROCS=1: contenders block (which yields the processor), and the
// holder polls observable pre-park counters before releasing.
func contendedRun(t *testing.T, name string, reg *metrics.Registry) {
	t.Helper()
	be, err := backend.New(name, backend.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	vm := jthread.NewVM()

	holder := vm.Attach("holder")
	profiledHoldLock(be, holder)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		profiledContendLock(be, vm.Attach("contender"))
	}()
	go func() {
		defer wg.Done()
		profiledAbortingReads(be, vm.Attach("aborter"))
	}()

	// Wait until both contenders are observably stalled: parked on a gate
	// (rwlock counters) or counted in the abort taxonomy (solero's
	// failed elisions are recorded at the abort, before the fallback
	// blocks). Then stall table sweeps against the bound monitor, release,
	// and drain.
	deadline := time.Now().Add(5 * time.Second)
	stalled := func() bool {
		st := be.Stats()
		parks := st["readParks"] + st["writeParks"] + st["flcWaits"] + st["fatEnters"]
		aborts := reg.AbortCount(metrics.AbortWriterRaced) + reg.AbortCount(metrics.AbortLockBitSet) +
			reg.AbortCount(metrics.AbortInflated)
		return parks > 0 || aborts > 0
	}
	for !stalled() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	if tb, ok := be.(backend.TableBacked); ok {
		sweeper := vm.Attach("sweeper")
		for reg.AbortCount(metrics.AbortSweepStall) == 0 && time.Now().Before(deadline) {
			profiledSweep(tb, sweeper)
			time.Sleep(100 * time.Microsecond)
		}
	}
	// Give blocked contenders one more beat to reach their park before the
	// release (their dwell records on wake either way).
	time.Sleep(2 * time.Millisecond)
	be.Unlock(holder)
	wg.Wait()
}

//go:noinline
func profiledHoldLock(be backend.Backend, th *jthread.Thread) {
	be.Lock(th)
}

//go:noinline
func profiledContendLock(be backend.Backend, th *jthread.Thread) {
	be.Lock(th)
	be.Unlock(th)
}

//go:noinline
func profiledAbortingReads(be backend.Backend, th *jthread.Thread) {
	sink := 0
	be.ReadSync(th, func() { sink++ })
	_ = sink
}

//go:noinline
func profiledSweep(tb backend.TableBacked, th *jthread.Thread) {
	tb.MonitorTable().Sweep(th.ID())
}

// TestContentionProfileRoundTrip is the in-tree stand-in for `go tool
// pprof -top`: real rwlock and solero runs must yield profiles with at
// least two distinct lock-site frames, correctly typed values, and cause
// labels drawn from the taxonomy.
func TestContentionProfileRoundTrip(t *testing.T) {
	for _, name := range []string{"rwlock", "solero"} {
		t.Run(name, func(t *testing.T) {
			reg := metrics.New(0)
			reg.SetSitePeriod(1) // attribute every event: determinism over overhead
			contendedRun(t, name, reg)

			gz, err := ContentionProfile(reg)
			if err != nil {
				t.Fatal(err)
			}
			p := decodeProfile(t, gz)
			p.checkHeader(t)
			if len(p.samples) == 0 {
				t.Fatal("contended run produced no samples")
			}
			leaves := p.leafFunctions(t)
			if len(leaves) < 2 {
				t.Fatalf("want >=2 distinct lock-site frames, got %d: %v", len(leaves), leaves)
			}
			for fn := range leaves {
				for _, machinery := range []string{
					"repro/internal/metrics.", "repro/internal/core.",
					"repro/internal/rwlock.", "repro/internal/vmlock.",
					"repro/internal/montable.",
					"repro/internal/backend.", "runtime.",
				} {
					if strings.HasPrefix(fn, machinery) {
						t.Fatalf("leaf frame %q is lock-internal; site attribution leaked machinery frames", fn)
					}
				}
			}
			var totalContentions, totalDelay int64
			causes := make(map[string]bool)
			causeDelay := make(map[string]int64)
			for _, s := range p.samples {
				if len(s.values) != 2 {
					t.Fatalf("sample has %d values, want 2", len(s.values))
				}
				totalContentions += s.values[0]
				totalDelay += s.values[1]
				c, ok := s.labels["cause"]
				if !ok {
					t.Fatal("sample missing cause label")
				}
				causes[c] = true
				causeDelay[c] += s.values[1]
			}
			if totalContentions == 0 {
				t.Fatal("zero total contentions")
			}
			if totalDelay == 0 {
				t.Fatal("zero total delay nanoseconds")
			}
			if len(causes) == 0 {
				t.Fatal("no cause labels")
			}
			// solero's contender parks on the FLC monitor behind the
			// holder: that wait is a monitor-park site like vmlock's.
			if name == "solero" && causeDelay["monitor-park"] == 0 {
				t.Fatalf("no cause=monitor-park sample with delay; causes %v", causeDelay)
			}
			t.Logf("%s: %d samples, %d sites, causes %v, contentions=%d delay=%dns",
				name, len(p.samples), len(leaves), keys(causes), totalContentions, totalDelay)
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestContentionProfileEmpty: a nil or empty registry still yields a
// decodable profile with the right header (the endpoint must not 500 on a
// fresh process).
func TestContentionProfileEmpty(t *testing.T) {
	for _, reg := range []*metrics.Registry{nil, metrics.New(1)} {
		gz, err := ContentionProfile(reg)
		if err != nil {
			t.Fatal(err)
		}
		p := decodeProfile(t, gz)
		p.checkHeader(t)
		if len(p.samples) != 0 {
			t.Fatalf("empty registry produced %d samples", len(p.samples))
		}
	}
}
