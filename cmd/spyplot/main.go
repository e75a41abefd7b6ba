// Command spyplot renders the nonzero structure of a sparse symmetric
// matrix under a chosen ordering, reproducing the Figure 4.1–4.5 style spy
// plots as PGM images or terminal ASCII art.
//
// Example:
//
//	spyplot -problem BARTH4 -alg spectral -o barth4_spectral.pgm
//	spyplot -grid 80x80 -alg rcm            # ASCII to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	envred "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/perm"
	"repro/internal/spy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spyplot: ")
	var (
		mmFile  = flag.String("mm", "", "Matrix Market input file")
		problem = flag.String("problem", "", "bundled problem name")
		grid    = flag.String("grid", "", "WxH grid graph")
		alg     = flag.String("alg", "identity", "ordering: identity, spectral, rcm, gps, gk, king, sloan, random")
		scale   = flag.Float64("scale", 1.0, "problem scale for -problem")
		seed    = flag.Int64("seed", 1, "random seed")
		size    = flag.Int("size", 64, "raster size (pixels / characters per side)")
		outFile = flag.String("o", "", "write a PGM image here instead of ASCII to stdout")
	)
	flag.Parse()

	g := load(*mmFile, *problem, *grid, *scale, *seed)
	p := ordering(g, *alg, *seed)
	r := spy.Rasterize(g, p, *size)

	if *outFile == "" {
		fmt.Print(r.ASCII())
		return
	}
	f, err := os.Create(*outFile)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.WritePGM(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%dx%d)", *outFile, *size, *size)
}

func load(mmFile, problem, grid string, scale float64, seed int64) *graph.Graph {
	switch {
	case mmFile != "":
		f, err := os.Open(mmFile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		g, err := envred.ReadMatrixMarket(f)
		if err != nil {
			log.Fatal(err)
		}
		return g
	case problem != "":
		spec, ok := gen.ByName(problem)
		if !ok {
			log.Fatalf("unknown problem %q", problem)
		}
		return spec.Generate(scale, seed).G
	case grid != "":
		var w, h int
		if _, err := fmt.Sscanf(grid, "%dx%d", &w, &h); err != nil || w < 1 || h < 1 {
			log.Fatalf("bad -grid %q", grid)
		}
		return graph.Grid(w, h)
	default:
		log.Fatal("one of -mm, -problem or -grid is required")
		return nil
	}
}

func ordering(g *graph.Graph, alg string, seed int64) perm.Perm {
	switch alg {
	case "identity":
		return perm.Identity(g.N())
	case "random":
		return perm.Random(g.N(), seed)
	case "spectral":
		res, err := envred.NewSession(envred.SessionOptions{Seed: seed}).Order(context.Background(), g, envred.AlgSpectral)
		if err != nil {
			log.Fatal(err)
		}
		return res.Perm
	case "rcm":
		return envred.RCM(g)
	case "gps":
		return envred.GPS(g)
	case "gk":
		return envred.GK(g)
	case "king":
		return envred.King(g)
	case "sloan":
		return envred.Sloan(g)
	default:
		log.Fatalf("unknown algorithm %q", alg)
		return nil
	}
}
