package interp

import (
	"fmt"
	"strings"
	"testing"

	"github.com/conanalysis/owl/internal/ir"
)

const spinBenchSrc = `
global @x = 0
func @main() {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 1000000000
  br %c, body, done
body:
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  %i2 = add %i, 1
  jmp head
done:
  ret 0
}
`

// BenchmarkStepThroughput measures raw interpreter speed (instructions per
// second) on a tight load/store loop.
func BenchmarkStepThroughput(b *testing.B) {
	mod := ir.MustParse("bench.oir", spinBenchSrc)
	m, err := New(Config{Module: mod, Sched: firstSched{}, MaxSteps: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Step() {
			b.Fatal("machine stopped early")
		}
	}
}

const contendedBenchSrc = `
global @x = 0
func @worker() {
entry:
  jmp head
head:
  %i = phi [entry: 0], [body: %i2]
  %c = icmp lt %i, 200
  br %c, body, done
body:
  %v = load @x
  %v2 = add %v, 1
  store %v2, @x
  %i2 = add %i, 1
  jmp head
done:
  ret 0
}
func @main() {
entry:
  %t1 = call @spawn(@worker)
  %t2 = call @spawn(@worker)
  %t3 = call @spawn(@worker)
  %t4 = call @spawn(@worker)
  %r1 = call @join(%t1)
  %r2 = call @join(%t2)
  %r3 = call @join(%t3)
  %r4 = call @join(%t4)
  ret 0
}
`

// BenchmarkContendedRun measures a full multithreaded run including spawn,
// join, and scheduler churn.
func BenchmarkContendedRun(b *testing.B) {
	mod := ir.MustParse("bench.oir", contendedBenchSrc)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(Config{Module: mod, Sched: &rr{last: -1}, MaxSteps: 100000})
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		if res.MaxStepsHit {
			b.Fatal("hit step bound")
		}
	}
}

// sleepersBenchSrc is the shape of the workloads' gated noise: 32
// spin-waiters polling a gate that never opens, each sleeping in
// io_delay between polls, around one worker looping on a global. At
// almost every step some sleeper is due to wake, so the step cost is
// dominated by how the machine keeps its runnable set.
var sleepersBenchSrc = func() string {
	var b strings.Builder
	b.WriteString(`
global @gate = 0
func @waiter() {
entry:
  jmp wait
wait:
  call @io_delay(7)
  %g = load @gate
  %c = icmp ne %g, 0
  br %c, go, wait
go:
  ret 0
}
` + strings.Replace(spinBenchSrc, "func @main()", "func @worker()", 1) + `
func @main() {
entry:
`)
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, "  %%w%d = call @spawn(@waiter)\n", i)
	}
	b.WriteString("  %t = call @spawn(@worker)\n  %r = call @join(%t)\n  ret 0\n}\n")
	return b.String()
}()

// BenchmarkStepSleepers measures the per-step cost with ~32 io_delay
// sleepers live, on both engines.
func BenchmarkStepSleepers(b *testing.B) {
	mod := ir.MustParse("bench.oir", sleepersBenchSrc)
	for _, engine := range []Engine{EngineTree, EngineBytecode} {
		b.Run(string(engine), func(b *testing.B) {
			m, err := New(Config{Module: mod, Sched: &rr{last: -1}, MaxSteps: 1 << 62, Engine: engine})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 10_000; i++ { // spawn everything, warm the trace
				m.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !m.Step() {
					b.Fatal("machine stopped early")
				}
			}
		})
	}
}
