package main

import (
	"strings"
	"testing"
)

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# TYPE server_batch_flush_ns histogram
server_batch_flush_ns_bucket{le="1000"} 1
server_batch_flush_ns_bucket{le="+Inf"} 2
server_batch_flush_ns_sum 3000
server_batch_flush_ns_count 2
decode_cache_hit 10
tenant_admitted{class="batch",tenant="a"} 1
tenant_admitted{class="interactive",tenant="b"} 2
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`server_batch_flush_ns_bucket{le="+Inf"} 6
server_batch_flush_ns_sum 11000
server_batch_flush_ns_count 6
decode_cache_hit 25
tenant_admitted{class="batch",tenant="a"} 4
tenant_admitted{class="interactive",tenant="b"} 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if mean, n := after.histMean(before, "server.batch.flush_ns"); mean != 2000 || n != 4 {
		t.Errorf("histMean = %v over %v, want 2000 over 4", mean, n)
	}
	if d := after.delta(before, "decode.cache_hit"); d != 15 {
		t.Errorf("counter delta = %v, want 15", d)
	}
	if d := after.delta(before, "tenant.admitted"); d != 3 {
		t.Errorf("labelled counter delta = %v, want 3 (summed over label sets)", d)
	}
	if mean, n := after.histMean(after, "server.batch.flush_ns"); mean != 0 || n != 0 {
		t.Errorf("empty interval gave %v over %v", mean, n)
	}
	if _, err := parseProm(strings.NewReader("metric_without_value\n")); err == nil {
		t.Error("malformed line accepted")
	}
}
