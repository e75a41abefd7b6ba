package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	envred "repro"
	"repro/client"
	"repro/internal/envelope"
	"repro/internal/graph"
)

// runBatch is the -batch mode: every positional argument is a Matrix
// Market file, and all of them are ordered with one registered algorithm
// in a single Session.OrderBatch call (or, with -remote, one
// POST /v1/order/batch round trip). The per-file reports stream to stdout
// as a table, or as one JSON array with -stats json. Driver specials
// (auto, identity, random) are not batchable; hybrid aliases
// SPECTRAL+SLOAN as in single-matrix mode.
func runBatch(files []string, method string, seed int64, budget time.Duration, stats, remote, apiKey, storeURL string) {
	switch strings.ToLower(method) {
	case "auto", "identity", "random":
		log.Fatalf("-batch needs a registered algorithm (got driver method %q)", method)
	case "hybrid", "spectral-sloan":
		method = envred.AlgSpectralSloan
	}
	if _, ok := envred.Lookup(method); !ok {
		log.Fatalf("unknown algorithm %q (registered: %s)", method, strings.Join(envred.Algorithms(), ", "))
	}
	graphs := make([]*graph.Graph, len(files))
	for i, path := range files {
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		g, err := envred.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		graphs[i] = g
	}

	ctx := context.Background()
	docs := make([]runStats, 0, len(files))
	failed := 0
	start := time.Now()
	if remote != "" {
		opts := []client.Option{}
		if apiKey != "" {
			opts = append(opts, client.WithAPIKey(apiKey))
		}
		res, err := client.New(remote, opts...).OrderBatch(ctx, graphs, client.BatchRequest{
			Algorithm: method,
			Seed:      seed,
			Timeout:   budget,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, ierr := range res.Errors {
			log.Printf("%s: %s", files[ierr.Index], ierr.Message)
			failed++
		}
		for i, item := range res.Results {
			if item == nil {
				continue
			}
			docs = append(docs, runStats{
				Matrix:    files[i] + " (remote)",
				N:         item.N,
				Nonzeros:  item.Nonzeros,
				Algorithm: item.Algorithm,
				Seconds:   item.ElapsedMS / 1000,
				Envelope:  envelope.Stats(item.Envelope),
				Solve:     item.Solve,
			})
		}
	} else {
		opts := envred.SessionOptions{Seed: seed, CacheGraphs: len(graphs)}
		var resil *envred.ResilientStore
		if storeURL != "" {
			resil = openStore(storeURL)
			defer resil.Close()
			opts.Store = resil
		}
		sess := envred.NewSession(opts)
		results, err := sess.OrderBatch(ctx, graphs, envred.BatchOptions{Algorithm: method, Seed: seed})
		if err != nil {
			log.Fatal(err)
		}
		warnDegradedStore(resil)
		for i := range results {
			if rerr := results[i].Err; rerr != nil {
				log.Printf("%s: %v", files[i], rerr)
				failed++
				continue
			}
			res := &results[i].Result
			docs = append(docs, runStats{
				Matrix:     files[i],
				N:          graphs[i].N(),
				Nonzeros:   graphs[i].Nonzeros(),
				Algorithm:  res.Algorithm,
				Seconds:    res.Elapsed.Seconds(),
				Envelope:   res.Stats,
				Solve:      res.Solve,
				Components: res.Components,
				Reversed:   res.Reversed,
			})
		}
	}
	elapsed := time.Since(start)

	if strings.EqualFold(stats, "json") {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("%-28s %10s %12s %12s %10s %10s\n", "MATRIX", "N", "NNZ", "ENVELOPE", "BANDWIDTH", "SECONDS")
		for _, d := range docs {
			fmt.Printf("%-28s %10d %12d %12d %10d %10.3f\n",
				d.Matrix, d.N, d.Nonzeros, d.Envelope.Esize, d.Envelope.Bandwidth, d.Seconds)
		}
		fmt.Printf("%d matrix(es) in %.3fs (%s, %d failed)\n", len(docs), elapsed.Seconds(), strings.ToUpper(method), failed)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
