package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gpunoc/internal/core"
	"gpunoc/internal/gpu"
)

// key is one (gpu, experiment, quick) tuple: the unit nocserve caches
// and the unit one cold fill computes.
type key struct {
	GPU   gpu.Generation
	Exp   string
	Quick bool
}

func (k key) String() string {
	mode := "full"
	if k.Quick {
		mode = "quick"
	}
	return fmt.Sprintf("%s/%s/%s", k.GPU, k.Exp, mode)
}

// formats are the four renderings of a result, in the order nocserve's
// ?format= values name them.
var formats = [4]string{"json", "csv", "text", "md"}

// knownDefect is the standing failure: /v1 and `nocchar -all` list
// V100/fig19, but the experiment refuses V100 at run time. It stays in
// the key set and counts as a failed operation until it is fixed.
var knownDefect = struct {
	gpu     gpu.Generation
	exp     string
	message string
}{gpu.GenV100, "fig19", "models the partitioned-GPU RSA kernel"}

func (k key) isKnownDefect() bool {
	return k.GPU == knownDefect.gpu && k.Exp == knownDefect.exp
}

// isKnownRefusal reports whether err is the standing refusal of k.
func isKnownRefusal(k key, msg string) bool {
	return k.isKnownDefect() && strings.Contains(msg, knownDefect.message)
}

// quickKeys lists every (gpu, exp) pair /v1 and `nocchar -all` list,
// in their order, in quick mode.
func quickKeys() []key {
	var out []key
	for _, cfg := range gpu.AllConfigs() {
		for _, e := range core.All() {
			if e.SupportsGPU(cfg.Name) {
				out = append(out, key{GPU: cfg.Name, Exp: e.ID, Quick: true})
			}
		}
	}
	return out
}

// nocFullKeys lists the NoC-simulator experiments at full fidelity on
// every GPU.
func nocFullKeys() []key {
	var out []key
	for _, cfg := range gpu.AllConfigs() {
		for _, e := range core.All() {
			if familyOf[e.ID] == "noc" && e.SupportsGPU(cfg.Name) {
				out = append(out, key{GPU: cfg.Name, Exp: e.ID})
			}
		}
	}
	return out
}

// families are the model-engine groups, named by the experiments that
// drive them.
var families = []string{"latency", "cache", "bandwidth", "sidechannel", "noc"}

// familyOf maps an experiment to the engine family it drives. An
// experiment missing here has family "", which fails the composition check.
var familyOf = func() map[string]string {
	m := map[string]string{"table1": "latency", "ext4": "cache", "ext3": "bandwidth", "ext2": "sidechannel", "ext1": "noc", "ext5": "noc"}
	for n := 1; n <= 23; n++ {
		id := fmt.Sprintf("fig%d", n)
		switch {
		case n <= 8:
			m[id] = "latency"
		case n <= 15:
			m[id] = "bandwidth"
		case n <= 19:
			m[id] = "sidechannel"
		default:
			m[id] = "noc"
		}
	}
	return m
}()

// experimentIDs lists every registered experiment id in registry order.
func experimentIDs() []string {
	var ids []string
	for _, e := range core.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// permute returns keys in the order of one seeded permutation.
func permute(rng *rand.Rand, keys []key) []key {
	out := make([]key, len(keys))
	for i, j := range rng.Perm(len(keys)) {
		out[i] = keys[j]
	}
	return out
}
