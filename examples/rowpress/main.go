// rowpress sweeps the aggressor row-on time (tAggON) and shows the §6
// result: keeping rows open longer amplifies read disturbance by orders of
// magnitude, down to a single 16 ms activation flipping bits (Fig 15).
package main

import (
	"fmt"
	"log"

	"hbmrd"
)

func main() {
	fleet, err := hbmrd.NewFleet([]int{5}) // the most RowHammer-vulnerable chip
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("HCfirst vs tAggON (Fig 15 mini):")
	recs, err := hbmrd.RunRowPressHC(fleet, hbmrd.RowPressHCConfig{
		Channels: []int{0},
		Rows:     hbmrd.SampleRows(6),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hbmrd.RenderFig15(recs))

	fmt.Println("\nBER at a fixed 150K hammers vs tAggON in ps (Fig 14 mini):")
	ber, err := hbmrd.RunRowPressBER(fleet, hbmrd.RowPressBERConfig{
		Channels: []int{0},
		Rows:     hbmrd.RegionRows(3),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hbmrd.RenderFig14(ber))
	fmt.Println("\nNote the jump at tREFI and 9*tREFI, and the ~50% saturation")
	fmt.Println("(all charged cells of the checkered victim flip, Obsv 18).")
}
