package inproc

import "testing"

// BenchmarkSendRecv measures one message round trip through a mailbox,
// including the accounting — the per-rendezvous cost of the master-slave
// scheme.
func BenchmarkSendRecv(b *testing.B) {
	f := New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Send(0, 1, "bench", nil, 64); err != nil {
			b.Fatal(err)
		}
		f.Recv(1)
	}
}

// BenchmarkBroadcast16 measures a 15-way fan-out from the master, one order
// per slave on the paper's farm size.
func BenchmarkBroadcast16(b *testing.B) {
	f := New(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for to := 1; to < 16; to++ {
			if err := f.Send(0, to, "bcast", nil, 64); err != nil {
				b.Fatal(err)
			}
		}
		for to := 1; to < 16; to++ {
			f.drain(to)
		}
	}
}
