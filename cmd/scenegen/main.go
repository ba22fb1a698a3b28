// Command scenegen generates the synthetic aerial-scene datasets and
// inspects them: region statistics to stdout and, optionally, an SVG
// rendering of the segmentation.
//
// Usage:
//
//	scenegen [-dataset SF|DC|MOFF|suburban] [-scale F] [-seed N] [-svg FILE]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"spampsm/internal/scene"
)

func main() {
	dataset := flag.String("dataset", "DC", "dataset: SF, DC, MOFF or suburban")
	scale := flag.Float64("scale", 1, "scene scale factor")
	seed := flag.Uint64("seed", 0, "override the dataset's seed (0 = keep)")
	svgOut := flag.String("svg", "", "write the segmentation to this SVG file")
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "scenegen: -scale %v: a scale factor is a finite number above 0\n", *scale)
		flag.Usage()
		os.Exit(2)
	}

	var sc *scene.Scene
	if *dataset == "suburban" {
		p := scene.SuburbanParams{Name: "suburban", Seed: 1990,
			Blocks: int(8 * *scale), HousesPerBlock: 6, Verts: 12}
		if *seed != 0 {
			p.Seed = *seed
		}
		sc = scene.GenerateSuburban(p)
	} else {
		p, ok := scene.ParamsByName(*dataset)
		if !ok {
			fmt.Fprintf(os.Stderr, "scenegen: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		if *scale != 1 {
			p = p.Scale(*scale)
		}
		if *seed != 0 {
			p.Seed = *seed
		}
		sc = scene.Generate(p)
	}

	fmt.Println(sc.Stats())
	// Per-class geometry statistics.
	kinds := map[scene.Kind][]*scene.Region{}
	for _, r := range sc.Regions {
		kinds[r.TrueKind] = append(kinds[r.TrueKind], r)
	}
	var names []scene.Kind
	for k := range kinds {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	fmt.Printf("%-20s %5s %12s %8s %8s %8s\n", "class", "n", "mean area", "elong", "intens", "verts")
	for _, k := range names {
		rs := kinds[k]
		var area, elong, intens, verts float64
		for _, r := range rs {
			area += r.Poly.Area()
			elong += r.Poly.Elongation()
			intens += r.Intensity
			verts += float64(len(r.Poly))
		}
		n := float64(len(rs))
		fmt.Printf("%-20s %5d %12.0f %8.1f %8.0f %8.1f\n", k, len(rs), area/n, elong/n, intens/n, verts/n)
	}

	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scenegen:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := sc.WriteSVG(f, nil); err != nil {
			fmt.Fprintln(os.Stderr, "scenegen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}
