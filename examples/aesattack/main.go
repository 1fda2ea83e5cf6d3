// AES attack: recover AES-128 last-round key bytes from kernel timing
// (the paper's Sec. V-B.1, after Jiang et al. HPCA'16), then show the
// paper's defence - random(-seed) thread-block scheduling - destroying
// the same attack by letting the NoC's non-uniform latency decorrelate
// the timings (Implication #3).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gpunoc"
	"gpunoc/internal/kernel"
	"gpunoc/internal/sidechannel"
)

func main() {
	dev, err := gpunoc.NewDevice("v100")
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	const samples = 15000
	const nBytes = 4

	run := func(label string, sched gpunoc.Scheduler) {
		m, err := kernel.NewMachine(dev, sched, kernel.Options{})
		if err != nil {
			log.Fatal(err)
		}
		victim, err := sidechannel.NewAESVictim(m, secret)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s scheduling: collecting %d warp timings...\n", label, samples)
		obs, err := sidechannel.CollectAESSamples(victim, samples, rand.New(rand.NewSource(5)))
		if err != nil {
			log.Fatal(err)
		}
		truth := victim.Key().LastRoundKey()
		hits := 0
		for j := 0; j < nBytes; j++ {
			r, err := sidechannel.RecoverAESKeyByte(obs, j, kernel.SectorBytes)
			if err != nil {
				log.Fatal(err)
			}
			ok := r.Best == truth[j]
			if ok {
				hits++
			}
			fmt.Printf("  byte %d: guessed %02x, truth %02x, peak correlation %.3f -> %v\n",
				j, r.Best, truth[j], r.Correlations[r.Best], ok)
		}
		fmt.Printf("  => recovered %d/%d key bytes\n\n", hits, nBytes)
	}

	run("static", gpunoc.StaticScheduler{})

	rng := rand.New(rand.NewSource(9))
	run("random", gpunoc.RandomScheduler{Rand: rng.Uint64})

	fmt.Println("Static scheduling pins the victim to one SM, so the unique-sector")
	fmt.Println("timing signal survives; random-seed scheduling moves it across SMs")
	fmt.Println("whose NoC latencies differ, burying the signal (paper Fig. 18).")
}
