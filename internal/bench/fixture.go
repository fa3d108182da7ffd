package bench

import (
	"crypto/rand"
	"fmt"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/mrsa"
	"repro/internal/pairing"
	"repro/internal/sem"
)

// World is a fully-enrolled deployment of every scheme under test: PKGs,
// a SEM daemon on a loopback listener, and one user ("alice") enrolled in
// the mediated IBE, the mediated GDH signature and IB-mRSA. The experiment
// drivers share it so every number comes from the same code paths the
// examples and tests exercise.
type World struct {
	Pairing *pairing.Params
	MsgLen  int
	ID      string

	IBEPKG  *core.MediatedPKG
	IBESEM  *core.IBESEM
	IBEUser *core.UserKeyHalf
	IBESEMK *core.SEMKeyHalf

	GDHAuth *core.GDHAuthority
	GDHSEM  *core.GDHSEM
	GDHUser *core.GDHUserKey
	GDHSEMK *core.GDHSEMKey

	RSAPKG  *mrsa.IBPKG
	RSASEM  *core.RSASEM
	RSAPub  *mrsa.PublicKey
	RSAUser *mrsa.HalfKey
	RSASEMK *mrsa.HalfKey

	Registry *core.Registry

	server *sem.Server
	addr   string
}

// WorldConfig selects the parameter sizes of a World.
type WorldConfig struct {
	Pairing *pairing.Params // default: paper parameters
	RSABits int             // 512 or 1024 (fixed moduli); default 1024
	MsgLen  int             // default 32
	// StartServer spins up the TCP SEM daemon (needed by T2/F3).
	StartServer bool
}

// NewWorld builds and enrolls the deployment.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.Pairing == nil {
		pp, err := pairing.Paper()
		if err != nil {
			return nil, err
		}
		cfg.Pairing = pp
	}
	if cfg.MsgLen == 0 {
		cfg.MsgLen = 32
	}
	if cfg.RSABits == 0 {
		cfg.RSABits = 1024
	}
	w := &World{
		Pairing:  cfg.Pairing,
		MsgLen:   cfg.MsgLen,
		ID:       "alice@example.com",
		Registry: core.NewRegistry(),
	}

	var err error
	if w.IBEPKG, err = core.NewMediatedPKG(rand.Reader, cfg.Pairing, cfg.MsgLen); err != nil {
		return nil, fmt.Errorf("ibe pkg: %w", err)
	}
	w.IBESEM = core.NewIBESEM(w.IBEPKG.Public(), w.Registry)
	if w.IBEUser, w.IBESEMK, err = w.IBEPKG.SplitExtract(rand.Reader, w.ID); err != nil {
		return nil, fmt.Errorf("ibe enroll: %w", err)
	}
	w.IBESEM.Register(w.IBESEMK)

	w.GDHAuth = core.NewGDHAuthority(cfg.Pairing)
	w.GDHSEM = core.NewGDHSEM(cfg.Pairing, w.Registry)
	if w.GDHUser, w.GDHSEMK, err = w.GDHAuth.Keygen(rand.Reader, w.ID); err != nil {
		return nil, fmt.Errorf("gdh enroll: %w", err)
	}
	w.GDHSEM.Register(w.GDHSEMK)

	switch cfg.RSABits {
	case 1024:
		w.RSAPKG, err = mrsa.FixedPaperPKG()
	case 512:
		w.RSAPKG, err = mrsa.FixedTestPKG()
	default:
		w.RSAPKG, err = mrsa.NewIBPKG(rand.Reader, cfg.RSABits)
	}
	if err != nil {
		return nil, fmt.Errorf("rsa pkg: %w", err)
	}
	w.RSASEM = core.NewRSASEM(w.Registry)
	if w.RSAUser, w.RSASEMK, err = w.RSAPKG.IssueHalves(rand.Reader, w.ID); err != nil {
		return nil, fmt.Errorf("rsa enroll: %w", err)
	}
	w.RSASEM.Register(w.ID, w.RSASEMK)
	w.RSAPub = w.RSAPKG.IdentityPublicKey(w.ID)

	if cfg.StartServer {
		srv, err := sem.NewServer(sem.Config{
			Registry: w.Registry,
			IBE:      w.IBESEM,
			GDH:      w.GDHSEM,
			RSA:      w.RSASEM,
			Pairing:  cfg.Pairing,
		})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		go func() { _ = srv.Serve(ln) }()
		w.server = srv
		w.addr = ln.Addr().String()
	}
	return w, nil
}

// Addr returns the SEM daemon address ("" when no server was started).
func (w *World) Addr() string { return w.addr }

// Dial opens a client to the World's SEM daemon.
func (w *World) Dial() (*sem.Pool, error) {
	if w.addr == "" {
		return nil, fmt.Errorf("bench: world has no running SEM server")
	}
	return sem.Dial(w.addr, w.Pairing, 5*time.Second)
}

// Close shuts the SEM daemon down.
func (w *World) Close() error {
	if w.server == nil {
		return nil
	}
	return w.server.Close()
}
