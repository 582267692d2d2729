// OLTP: the paper's DBT-2 scenario on the real (goroutine) stack. A
// TPC-C-like order-entry workload — New-Order, Payment, Order-Status,
// Delivery and Stock-Level transactions over warehouse-scaled tables —
// runs against the real buffer pool with a buffer far smaller than the
// database and a latency-simulating disk, the Figure 8 regime where hit
// ratio decides throughput. Dirty pages (Payment updates warehouse and
// district rows on nearly every transaction) are written back on eviction.
package main

import (
	"fmt"
	"log"
	"time"

	"bpwrapper"
)

func main() {
	wl := bpwrapper.NewTPCC(bpwrapper.TPCCConfig{Warehouses: 4, Items: 5000, Customers: 1500})
	dbPages := wl.DataPages()
	fmt.Printf("TPC-C-like database: %d pages (%.0f MB)\n\n", dbPages, float64(dbPages)*8192/(1<<20))

	fmt.Printf("%-8s %10s %12s %12s %12s %10s\n",
		"policy", "buffer%", "hit ratio", "txns/sec", "p99 resp", "writebacks")
	for _, name := range []string{"clock", "2q", "lirs"} {
		for _, frac := range []float64{0.05, 0.25} {
			frames := int(float64(dbPages) * frac)
			disk := bpwrapper.NewSimDisk(bpwrapper.NewMemDevice(), bpwrapper.SimDiskConfig{
				ReadLatency: 250 * time.Microsecond,
				Parallelism: 8,
			})
			pool := bpwrapper.NewPool(bpwrapper.PoolConfig{
				Frames:        frames,
				PolicyFactory: bpwrapper.PolicyFactories()[name],
				Wrapper:       bpwrapper.WrapperConfig{Batching: true, Prefetching: true},
				Device:        disk,
			})
			res, err := bpwrapper.RunFleet(bpwrapper.FleetConfig{
				Pool:     pool,
				Workload: wl,
				Workers:  8,
				Duration: 700 * time.Millisecond,
				Seed:     42,
			})
			if err != nil {
				log.Fatal(err)
			}
			if n := res.Counters.Errors; n > 0 {
				log.Fatalf("%s: %d failed accesses", name, n)
			}
			// Flush remaining dirty pages, as a checkpoint would.
			if _, err := pool.FlushDirty(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s %9.0f%% %11.1f%% %12.0f %12s %10d\n",
				name, 100*frac, 100*pool.Stats().HitRatio, float64(res.Counters.Txns)/res.Elapsed.Seconds(),
				res.Latency.Quantile(0.99).Round(10*time.Microsecond), disk.Stats().Writes)
		}
	}
	fmt.Println("\nAt 5% the three policies hit within about a point of each other and")
	fmt.Println("are equally I/O bound. At 25% throughput follows the hit ratio: lirs")
	fmt.Println("edges out clock, and 2q trails both on this workload. Which policy")
	fmt.Println("pays depends on the workload, which is why the wrapper takes any.")
}
