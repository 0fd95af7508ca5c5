package locks

import (
	"armbar/internal/core"
	"armbar/internal/isa"
	"armbar/internal/sim"
)

// FFWDLock is the dedicated-server delegation lock (Roghanchi et al.,
// reimplemented per the paper's Algorithm 5): every client owns a
// request line and a response line; a dedicated server thread
// round-robins over the request lines, executes the critical sections,
// and publishes responses. The server naturally batches every pending
// request it finds in one sweep, sharing the response-publication
// barrier among them — which is why the paper finds FFWD's Pilot gain
// smaller than DSMSynch's.
//
// With pilot enabled, requests and responses are Pilot-encoded
// (Algorithm 6): the argument/return word change is the signal, the
// line-7 barrier that strictly followed the response RMR disappears,
// and per-client fallback flags cover collisions.
type FFWDLock struct {
	nClients int
	pilot    bool
	barX     isa.Barrier // Algorithm 5 line 4
	barY     isa.Barrier // Algorithm 5 line 7

	req     []uint64 // request line per client: flag+0, arg+8
	resp    []uint64 // response flag line per client (plain mode)
	respVal []uint64 // response value line per client: ret+0, fbflag+8
	server  *Server
	pool    []uint64

	// Client-local protocol state, indexed by client id. Only the
	// owning client touches its entry, except the hash counters the
	// server mirrors independently.
	cReqFlag  []uint64
	cRespFlag []uint64
	cOldArg   []uint64
	cOldRet   []uint64
	cCnt      []int
}

// Server is the dedicated FFWD server's state; spawn a thread running
// Server.Run alongside the clients.
type Server struct {
	l        *FFWDLock
	oldFlag  []uint64 // last seen request flag (plain mode)
	oldArg   []uint64 // last seen encoded arg (pilot mode)
	oldRet   []uint64 // last stored encoded ret (pilot mode)
	respFlag []uint64
	fbFlag   []uint64
	cnt      []int
	cs       []CS
	args     []uint64
}

// NewFFWD allocates an FFWD lock for nClients on machine m. barriers
// are the X (line 4) and Y (line 7) choices; zero values default to
// LDAR and DMB st.
func NewFFWD(m *sim.Machine, nClients int, pilot bool, barriers [2]isa.Barrier) *FFWDLock {
	if barriers[0] == isa.None {
		barriers[0] = isa.LDAR
	}
	if barriers[1] == isa.None && !pilot {
		barriers[1] = isa.DMBSt
	}
	l := &FFWDLock{
		nClients:  nClients,
		pilot:     pilot,
		barX:      barriers[0],
		barY:      barriers[1],
		req:       make([]uint64, nClients),
		resp:      make([]uint64, nClients),
		pool:      core.HashPool(0xFF17D),
		cReqFlag:  make([]uint64, nClients),
		cRespFlag: make([]uint64, nClients),
		cOldArg:   make([]uint64, nClients),
		cOldRet:   make([]uint64, nClients),
		cCnt:      make([]int, nClients),
	}
	l.respVal = make([]uint64, nClients)
	for i := 0; i < nClients; i++ {
		l.req[i] = m.Alloc(1)
		l.resp[i] = m.Alloc(1)
		l.respVal[i] = m.Alloc(1)
	}
	l.server = &Server{
		l:        l,
		oldFlag:  make([]uint64, nClients),
		oldArg:   make([]uint64, nClients),
		oldRet:   make([]uint64, nClients),
		respFlag: make([]uint64, nClients),
		fbFlag:   make([]uint64, nClients),
		cnt:      make([]int, nClients),
		cs:       make([]CS, nClients),
		args:     make([]uint64, nClients),
	}
	return l
}

// Name implements Lock.
func (l *FFWDLock) Name() string {
	if l.pilot {
		return "FFWD-P"
	}
	return "FFWD"
}

// NoBarrierY removes the line-7 barrier (the Figure 7b
// "LDAR-No Barrier" configuration). Plain mode only.
func (l *FFWDLock) NoBarrierY() { l.barY = isa.None }

// Server returns the dedicated server state; spawn a simulated thread
// running Server.Run before Machine.Run.
func (l *FFWDLock) Server() *Server { return l.server }

// Exec implements Lock: publish the request, wait for the response.
func (l *FFWDLock) Exec(t *sim.Thread, c int, cs CS, arg uint64) uint64 {
	l.server.cs[c] = cs
	if l.pilot {
		// Pilot request: the encoded argument word itself is the signal.
		h := l.pool[l.cCnt[c]%core.PoolSize]
		enc := arg ^ h
		t.Nops(2)
		if enc == l.cOldArg[c] {
			l.cReqFlag[c] ^= 1
			t.Store(l.req[c], l.cReqFlag[c])
		} else {
			t.Store(l.req[c]+8, enc)
			l.cOldArg[c] = enc
		}
		// Pilot response: spin on the return word / fallback flag —
		// one cache line, no response-flag line at all.
		var encRet uint64
		for {
			if v := t.Load(l.respVal[c]); v != l.cOldRet[c] {
				l.cOldRet[c] = v
				encRet = v
				break
			}
			if f := t.Load(l.respVal[c] + 8); f != l.cRespFlag[c] {
				l.cRespFlag[c] = f
				encRet = l.cOldRet[c]
				break
			}
			t.Nops(spinPause)
		}
		ret := encRet ^ h
		l.cCnt[c]++
		return ret
	}
	// Plain request: write the argument, publish, toggle the flag.
	t.Store(l.req[c]+8, arg)
	t.Barrier(isa.DMBSt)
	l.cReqFlag[c] ^= 1
	t.Store(l.req[c], l.cReqFlag[c])
	// Plain response: spin on the response flag line, then read the
	// value line behind a load barrier (two RMR lines; Pilot needs one).
	for t.Load(l.resp[c]) == l.cRespFlag[c] {
		t.Nops(spinPause)
	}
	l.cRespFlag[c] ^= 1
	t.Barrier(isa.DMBLd)
	return t.Load(l.respVal[c])
}

// Run is the dedicated server loop: sweep all clients, serve every
// pending request found, publish all responses with one shared Y
// barrier (plain mode). It exits once every client thread has
// finished (see sim.Thread.AllFinished).
func (s *Server) Run(t *sim.Thread, clients []*sim.Thread) {
	l := s.l
	pending := make([]int, 0, l.nClients)
	for !t.AllFinished(clients) {
		pending = pending[:0]
		for c := 0; c < l.nClients; c++ {
			if l.pilot {
				// Request signal: encoded-arg change or fallback flag.
				if v := t.Load(l.req[c] + 8); v != s.oldArg[c] {
					s.oldArg[c] = v
				} else if f := t.Load(l.req[c]); f != s.oldFlag[c] {
					s.oldFlag[c] = f
				} else {
					continue
				}
				s.applyBarX(t, l.req[c]+8)
				s.args[c] = s.oldArg[c] ^ l.pool[s.cnt[c]%core.PoolSize]
				pending = append(pending, c)
				continue
			}
			var f uint64
			if l.barX == isa.LDAR {
				f = t.LoadAcquire(l.req[c])
			} else {
				f = t.Load(l.req[c])
			}
			if f == s.oldFlag[c] {
				continue
			}
			s.oldFlag[c] = f
			s.applyBarX(t, l.req[c])
			s.args[c] = t.Load(l.req[c] + 8)
			pending = append(pending, c)
		}
		if len(pending) == 0 {
			t.Nops(spinPause)
			continue
		}
		if l.pilot {
			for _, c := range pending {
				raw := s.cs[c](t, s.args[c])
				// Line 8 of Algorithm 6: publish client-local CS
				// modifications; cheap because the CS only touched
				// server-near lines.
				if l.barY != isa.None {
					t.Barrier(l.barY)
				}
				enc := raw ^ l.pool[s.cnt[c]%core.PoolSize]
				s.cnt[c]++
				t.Nops(2)
				if enc == s.oldRet[c] {
					s.fbFlag[c] ^= 1
					t.Store(l.respVal[c]+8, s.fbFlag[c])
				} else {
					t.Store(l.respVal[c], enc)
					s.oldRet[c] = enc
				}
			}
			continue
		}
		// Plain mode: execute and write every response value (the RMR
		// stores), then share one Y barrier across the batch, then
		// toggle all flags.
		for _, c := range pending {
			ret := s.cs[c](t, s.args[c])
			t.Store(l.respVal[c], ret)
		}
		if l.barY != isa.None {
			t.Barrier(l.barY)
		}
		for _, c := range pending {
			s.respFlag[c] ^= 1
			t.Store(l.resp[c], s.respFlag[c])
		}
	}
}

// applyBarX applies the line-4 request-consumption barrier. LDAR is
// handled at the load site in plain mode; in pilot mode it degrades to
// a DMB ld-equivalent ordering point.
func (s *Server) applyBarX(t *sim.Thread, addr uint64) {
	switch s.l.barX {
	case isa.LDAR:
		if s.l.pilot {
			t.Barrier(isa.DMBLd)
		}
	case isa.None:
	default:
		t.Barrier(s.l.barX)
	}
}
