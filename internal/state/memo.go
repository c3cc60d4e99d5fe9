package state

// Memo files. Under the Replay bit a unit's segment memo (internal/core,
// replay.go) is persisted beside its state file, so a new process replays
// every function an edit left alone. Like a state file it only has to be
// valid or detectably invalid: it is written in place when its bytes
// changed (WriteChangedFS), without fsync, and a file that is missing,
// torn, of another version, compiler build or pipeline, or whose checksum
// fails makes its unit replay nothing, which is always correct.
//
//	magic "SCCM" | u32 MemoVersion | u32 CRC-32C(bytes[12:]) |
//	u32 core.StateVersion | u64 CompilerID | u64 pipelineHash | u64 key seed |
//	u32 len | memo (core.UnitState.AppendMemo) |
//	u32 len | object (internal/cas's v1 codec; 0 bytes for none)
//
// The seed is the one every key of the memo is under (ir.KeySeed); the
// object is validated in full when it is decoded (cas.DecodeObject).

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"debug/elf"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"statefulcc/internal/cas"
	"statefulcc/internal/codegen"
	"statefulcc/internal/core"
	"statefulcc/internal/ir"
	"statefulcc/internal/vfs"
)

var memoMagic = [4]byte{'S', 'C', 'C', 'M'}

// MemoVersion is the memo file layout version the encoder writes and the
// only one the decoder accepts.
const MemoVersion = 1

// memoHeaderLen is the size of the header the checksum does not cover
// plus the fields it does before the memo.
const memoHeaderLen = headerLen + 4 + 8 + 8 + 8

// CompilerID identifies the build of the running compiler. A memo holds
// the outputs of this build's frontend, passes and code generator, so a
// file another build wrote is rejected even when core.StateVersion agrees:
// a compiler rebuilt after any change to what it generates would otherwise
// replay the old one's IR and code. It is a hash of the Go build ID the
// linker stamps into an ELF executable (the .note.go.buildid section; its
// last part is a hash of the executable's content), read once per process.
// A process that finds no build ID gets a random identity, so its memo
// files load in no other process.
var CompilerID = sync.OnceValue(func() uint64 {
	if id := executableBuildID(); id != nil {
		h := sha256.Sum256(id)
		return binary.LittleEndian.Uint64(h[:])
	}
	var r [8]byte
	rand.Read(r[:])
	return binary.LittleEndian.Uint64(r[:]) | 1
})

// ErrOtherCompiler is DecodeMemo's error for a memo file another build of
// the compiler wrote: not a fault, the compiler was rebuilt since.
var ErrOtherCompiler = errors.New("memo: of another compiler build")

// executableBuildID returns the build ID note of the running executable,
// nil when it has none or cannot be read.
func executableBuildID() []byte {
	path, err := os.Executable()
	if err != nil {
		return nil
	}
	f, err := elf.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	s := f.Section(".note.go.buildid")
	if s == nil {
		return nil
	}
	// The note is namesz, descsz, type (u32 each), "Go\x00\x00", then
	// descsz bytes of ID, padded.
	d, err := s.Data()
	if err != nil || len(d) <= 16 {
		return nil
	}
	n := f.ByteOrder.Uint32(d[4:])
	if n == 0 || uint64(n) > uint64(len(d)-16) {
		return nil
	}
	return d[16 : 16+n]
}

// MarshalMemo returns the memo file of st, nil when st has no memo.
func MarshalMemo(st *core.UnitState) []byte {
	if !st.HasMemo() {
		return nil
	}
	le := binary.LittleEndian
	b := make([]byte, memoHeaderLen, memoHeaderLen+8+st.MemoBytes()+st.MemoBytes()/4)
	copy(b, memoMagic[:])
	le.PutUint32(b[4:], MemoVersion)
	le.PutUint32(b[12:], core.StateVersion)
	le.PutUint64(b[16:], CompilerID())
	le.PutUint64(b[24:], st.PipelineHash)
	le.PutUint64(b[32:], uint64(st.KeySeed()))
	at := len(b)
	b = st.AppendMemo(le.AppendUint32(b, 0))
	le.PutUint32(b[at:], uint32(len(b)-at-4))
	at = len(b)
	b = le.AppendUint32(b, 0)
	if o := st.MemoObject(); o != nil {
		b = cas.AppendObject(b, o)
	}
	le.PutUint32(b[at:], uint32(len(b)-at-4))
	le.PutUint32(b[8:], crc32.Checksum(b[headerLen:], castagnoli))
	return b
}

// LoadMemoFS loads the memo file at path into st, the unit's state, read
// through fsys. A missing file is (false, nil); a file that is not the memo
// of st's pipeline under this compiler, or does not decode, is an error
// that leaves st without a memo.
func LoadMemoFS(fsys vfs.FS, path string, st *core.UnitState) (bool, error) {
	f, err := vfs.Default(fsys).Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("memo: %w", err)
	}
	buf, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return false, fmt.Errorf("memo: %w", err)
	}
	if err := DecodeMemo(buf, st); err != nil {
		return false, err
	}
	return true, nil
}

// DecodeMemo makes the memo file held in buf st's memo. The memo keeps no
// reference to buf.
func DecodeMemo(buf []byte, st *core.UnitState) error {
	le := binary.LittleEndian
	switch {
	case len(buf) < memoHeaderLen+8:
		return fmt.Errorf("memo: %w", io.ErrUnexpectedEOF)
	case !bytes.Equal(buf[:4], memoMagic[:]):
		return fmt.Errorf("memo: bad magic")
	case le.Uint32(buf[4:]) != MemoVersion:
		return fmt.Errorf("memo: unsupported version %d", le.Uint32(buf[4:]))
	case crc32.Checksum(buf[headerLen:], castagnoli) != le.Uint32(buf[8:]):
		return fmt.Errorf("memo: checksum mismatch")
	case le.Uint32(buf[12:]) != core.StateVersion:
		return fmt.Errorf("memo: of state version %d", le.Uint32(buf[12:]))
	case le.Uint64(buf[16:]) != CompilerID():
		return ErrOtherCompiler
	case le.Uint64(buf[24:]) != st.PipelineHash:
		return fmt.Errorf("memo: of another pipeline")
	}
	seed := ir.KeySeed(le.Uint64(buf[32:]))
	rest := buf[memoHeaderLen:]
	n := uint64(le.Uint32(rest))
	if n+8 > uint64(len(rest)) {
		return fmt.Errorf("memo: %w", io.ErrUnexpectedEOF)
	}
	enc, rest := rest[4:4+n], rest[4+n:]
	if uint64(le.Uint32(rest)) != uint64(len(rest)-4) {
		return fmt.Errorf("memo: object length does not match the file")
	}
	var obj *codegen.Object
	if len(rest) > 4 {
		var err error
		if obj, err = cas.DecodeObject(rest[4:]); err != nil {
			return fmt.Errorf("memo: %w", err)
		}
	}
	if err := st.LoadMemo(seed, enc, obj); err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	return nil
}
