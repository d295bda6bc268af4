// Cross-platform comparison: the paper's headline experiment in
// miniature. One workload is run on all six systems — two measured CPU
// engines (CasOT, the HyperScan-class automata engine) and four modeled
// accelerators (Cas-OFFinder's GPU, iNFAnt2, FPGA overlay, Micron AP).
// The modeled systems price the HyperScan-class reference scan with a
// device cost model, so every system returns the identical site count
// while differing enormously in kernel time. The "host scan" column is
// the wall-clock of the scan that ran on this machine (the reference
// scan, for a modeled system); "device est" is the modeled kernel time.
//
//	go run ./examples/platforms
package main

import (
	"fmt"
	"log"

	"github.com/cap-repro/crisprscan"
)

func main() {
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 21, ChromLen: 1_000_000, RepeatRate: 0.15})
	guides, err := crisprscan.SampleGuides(g, 5, 20, "NGG", 22)
	if err != nil {
		log.Fatal(err)
	}

	engines := []crisprscan.Engine{
		crisprscan.EngineCasOT,
		crisprscan.EngineCasOffinderGPU,
		crisprscan.EngineHyperscan,
		crisprscan.EngineInfant,
		crisprscan.EngineFPGA,
		crisprscan.EngineAP,
	}

	fmt.Printf("%-18s %8s %14s %14s %10s\n", "engine", "sites", "host scan (s)", "device est (s)", "STEs/LUTs")
	var refSites int
	for i, e := range engines {
		res, err := crisprscan.Search(g, guides, crisprscan.Params{
			MaxMismatches: 3,
			Engine:        e,
			MergeStates:   true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			refSites = len(res.Sites)
		} else if len(res.Sites) != refSites {
			log.Fatalf("%s returned %d sites, reference %d — engines must agree", e, len(res.Sites), refSites)
		}
		device := "-"
		resources := "-"
		if res.Stats.Modeled != nil {
			device = fmt.Sprintf("%.6f", res.Stats.Modeled.Kernel)
		}
		if res.Stats.Resources != nil && res.Stats.Resources.States > 0 {
			resources = fmt.Sprintf("%d", res.Stats.Resources.States)
		}
		fmt.Printf("%-18s %8d %14.3f %14s %10s\n",
			res.Stats.Engine, len(res.Sites), res.Stats.ElapsedSec, device, resources)
	}
	fmt.Println("\nAll engines agree on the site set; they differ only in where the time goes.")
	fmt.Println("Run `go run ./cmd/benchtab -scale test` for the full E1..E14 evaluation series.")
}
