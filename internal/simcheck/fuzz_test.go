package simcheck

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gpunoc/internal/noc"
)

// A case's byte layout. Every field is reduced modulo its range, so
// every byte string decodes to a valid case; missing header bytes read
// as zero.
//
//	byte 0      kind: even mesh, odd xbar
//	byte 1      mesh Width or xbar Clusters, 1-6
//	byte 2      mesh Height or xbar NodesPerCluster, 1-6
//	byte 3      xbar MemPorts, 1-6
//	byte 4      mesh BufferFlits or xbar VOQDepth, 1-8
//	byte 5, 6   xbar HubCapacity, PortCapacity, 1-4
//	byte 7      arbiter: even round-robin, odd age-based
//	byte 8      mesh RefusePct, 0-60
//	bytes 9-16  RefuseSalt, little-endian
//
// Then come 4-byte injection records: the cycle delta since the
// previous injection (0-3), the source node, the destination (a node
// for a mesh, a memory port for a crossbar) and the flits (1-8). At
// most maxRecords are read, which bounds one run to about 2 000 flits;
// a trailing partial record and anything past the cap are ignored.
const (
	headerBytes = 17
	recordBytes = 4
	maxRecords  = 256
)

// decodeCase maps bytes onto a case.
func decodeCase(data []byte) Case {
	var h [headerBytes]byte
	copy(h[:], data)
	dim := func(b byte, n int) int { return 1 + int(b)%n }
	arb := noc.Arbiter(h[7] % 2)
	c := Case{RefuseSalt: binary.LittleEndian.Uint64(h[9:])}
	var nodes, dsts int
	if h[0]%2 == 0 {
		c.Kind = "mesh"
		c.Mesh = noc.MeshConfig{Width: dim(h[1], 6), Height: dim(h[2], 6), BufferFlits: dim(h[4], 8), Arbiter: arb}
		c.RefusePct = int(h[8]) % 61
		nodes = c.Mesh.Width * c.Mesh.Height
		dsts = nodes
	} else {
		c.Kind = "xbar"
		c.Xbar = noc.XbarConfig{
			Clusters: dim(h[1], 6), NodesPerCluster: dim(h[2], 6), MemPorts: dim(h[3], 6),
			VOQDepth: dim(h[4], 8), HubCapacity: dim(h[5], 4), PortCapacity: dim(h[6], 4), Arbiter: arb,
		}
		nodes = c.Xbar.Clusters * c.Xbar.NodesPerCluster
		dsts = c.Xbar.MemPorts
	}
	recs := data[min(len(data), headerBytes):]
	cycle := 0
	for i := 0; i < maxRecords && (i+1)*recordBytes <= len(recs); i++ {
		r := recs[i*recordBytes:]
		cycle += int(r[0] % 4)
		c.Injections = append(c.Injections, Injection{
			Cycle: cycle, Src: int(r[1]) % nodes, Dst: int(r[2]) % dsts, Flits: dim(r[3], 8),
		})
	}
	return c
}

// FuzzNoCCase audits the case its input decodes to. go test runs the
// committed corpus in testdata/fuzz/FuzzNoCCase, and -fuzz mutates past
// it. A case fails on an error or on any violation, a network that
// never drains included; the failing input file is the reproducer.
func FuzzNoCCase(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeCase(data)
		if v, err := RunCase(c); err != nil || len(v) > 0 {
			t.Fatalf("%s case (%+v %+v, refuse %d%%, %d injections): error %v, violations:\n%v",
				c.Kind, c.Mesh, c.Xbar, c.RefusePct, len(c.Injections), err, v)
		}
	})
}

// corpusCases decodes FuzzNoCCase's committed corpus, in file-name
// order.
func corpusCases(t *testing.T) []Case {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzNoCCase", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzNoCCase corpus (%v)", err)
	}
	cases := make([]Case, len(files))
	for i, file := range files {
		raw, err := os.ReadFile(file)
		lit, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		data, qerr := strconv.Unquote(strings.TrimSuffix(lit, ")\n"))
		if err != nil || !ok || qerr != nil {
			t.Fatalf("%s is not a one-[]byte corpus file", file)
		}
		cases[i] = decodeCase([]byte(data))
	}
	return cases
}

// Both sabotage modes must be caught on every mesh case of the corpus,
// or a clean FuzzNoCCase run would prove nothing about the auditor.
func TestSabotageModesDetected(t *testing.T) {
	for i, c := range corpusCases(t) {
		if c.Kind != "mesh" {
			continue
		}
		for _, mode := range []string{SabotageDoubleTail, SabotageDropRecord} {
			c.Sabotage = mode
			if v, err := RunCase(c); err != nil || len(v) == 0 {
				t.Errorf("corpus case %d: sabotage %q went undetected (error %v)", i, mode, err)
			}
		}
	}
	if err := (&MeshAuditor{}).SetSabotage("nonsense"); err == nil {
		t.Error("unknown sabotage mode accepted")
	}
}

func TestRunCaseRejectsMalformedCases(t *testing.T) {
	if _, err := RunCase(Case{Kind: "ring"}); err == nil {
		t.Error("unknown kind accepted")
	}
	for i, c := range corpusCases(t) {
		if c.Kind != "xbar" {
			continue
		}
		c.Sabotage = SabotageDoubleTail
		if _, err := RunCase(c); err == nil {
			t.Errorf("corpus case %d: xbar sabotage accepted despite having no delivery tap", i)
		}
	}
}
