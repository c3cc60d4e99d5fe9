package workload

// StandardSuite defines the benchmark projects used throughout the
// evaluation — the reproduction's stand-in for the paper's real-world C++
// project list (Table 1). Sizes span roughly an order of magnitude, so the
// batteries that iterate over the suite see small and large projects alike.

// StandardSuite returns the eight benchmark project profiles.
func StandardSuite() []Profile {
	return []Profile{
		{
			Name: "tinyutil", Seed: 101,
			Files: 6, FuncsPerFileMin: 3, FuncsPerFileMax: 6,
			StmtsPerFuncMin: 3, StmtsPerFuncMax: 8,
			GlobalsPerFile: 2, CrossFileCallFrac: 0.4, PrivateFrac: 0.35,
		},
		{
			Name: "parserlib", Seed: 202,
			Files: 12, FuncsPerFileMin: 4, FuncsPerFileMax: 8,
			StmtsPerFuncMin: 4, StmtsPerFuncMax: 10,
			GlobalsPerFile: 3, CrossFileCallFrac: 0.35, PrivateFrac: 0.4,
		},
		{
			Name: "mathkit", Seed: 303,
			Files: 16, FuncsPerFileMin: 5, FuncsPerFileMax: 9,
			StmtsPerFuncMin: 5, StmtsPerFuncMax: 12,
			GlobalsPerFile: 2, CrossFileCallFrac: 0.3, PrivateFrac: 0.3,
		},
		{
			Name: "netstack", Seed: 404,
			Files: 24, FuncsPerFileMin: 4, FuncsPerFileMax: 10,
			StmtsPerFuncMin: 4, StmtsPerFuncMax: 10,
			GlobalsPerFile: 4, CrossFileCallFrac: 0.45, PrivateFrac: 0.45,
		},
		{
			Name: "renderer", Seed: 505,
			Files: 32, FuncsPerFileMin: 5, FuncsPerFileMax: 11,
			StmtsPerFuncMin: 5, StmtsPerFuncMax: 14,
			GlobalsPerFile: 3, CrossFileCallFrac: 0.3, PrivateFrac: 0.35,
		},
		{
			Name: "database", Seed: 606,
			Files: 48, FuncsPerFileMin: 5, FuncsPerFileMax: 10,
			StmtsPerFuncMin: 4, StmtsPerFuncMax: 12,
			GlobalsPerFile: 4, CrossFileCallFrac: 0.35, PrivateFrac: 0.4,
		},
		{
			Name: "compilerfe", Seed: 707,
			Files: 64, FuncsPerFileMin: 6, FuncsPerFileMax: 12,
			StmtsPerFuncMin: 5, StmtsPerFuncMax: 12,
			GlobalsPerFile: 3, CrossFileCallFrac: 0.4, PrivateFrac: 0.45,
		},
		{
			Name: "monorepo", Seed: 808,
			Files: 96, FuncsPerFileMin: 5, FuncsPerFileMax: 12,
			StmtsPerFuncMin: 4, StmtsPerFuncMax: 12,
			GlobalsPerFile: 4, CrossFileCallFrac: 0.35, PrivateFrac: 0.4,
		},
	}
}

// MegaProfile returns the scale stress profile — roughly twice monorepo,
// past the 200-unit mark — that every workload of the benchmark of record
// (`go run ./benchmark`) builds, and the footprint battery's scale case. It
// is deliberately not part of StandardSuite, so the batteries that iterate
// over the suite stay fast.
func MegaProfile() Profile {
	return Profile{
		Name: "megarepo", Seed: 909,
		Files: 208, FuncsPerFileMin: 4, FuncsPerFileMax: 9,
		StmtsPerFuncMin: 3, StmtsPerFuncMax: 9,
		GlobalsPerFile: 3, CrossFileCallFrac: 0.4, PrivateFrac: 0.4,
	}
}

// QuickSuite returns a two-project subset for fast tests.
func QuickSuite() []Profile {
	s := StandardSuite()
	return []Profile{s[0], s[1]}
}

// DefaultCommitOptions is the canonical incremental edit shape: one or two
// files touched, a couple of edits each — the paper's "minor changes".
func DefaultCommitOptions() CommitOptions {
	return CommitOptions{Units: 2, EditsPerUnit: 2}
}
