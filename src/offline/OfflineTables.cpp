//===- offline/OfflineTables.cpp - burg-style exhaustive automata ---------===//
//
// Part of the odburg project.
//
//===----------------------------------------------------------------------===//

#include "offline/OfflineTables.h"

#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Timer.h"

#include <algorithm>
#include <deque>
#include <istream>
#include <ostream>
#include <unordered_map>

using namespace odburg;

namespace odburg::detail {

/// Grants the generator write access to CompiledTables' internals without
/// exposing them in the public API.
class TableBuilder {
public:
  using OpTable = CompiledTables::OpTable;

  static std::vector<StateId> &leafStates(CompiledTables &T) {
    return T.LeafStates;
  }
  static std::vector<OpTable> &opTables(CompiledTables &T) {
    return T.OpTables;
  }
  static std::vector<std::uint8_t> &inPartition(CompiledTables &T) {
    return T.InPartition;
  }
  static CompiledTables::Stats &stats(CompiledTables &T) { return T.GenStats; }
  static std::unique_ptr<StateTable> &states(CompiledTables &T) {
    return T.States;
  }
};

} // namespace odburg::detail

namespace {

using odburg::detail::TableBuilder;

/// Hash for projected cost vectors.
struct ProjHash {
  std::size_t operator()(const std::vector<std::uint32_t> &V) const {
    return static_cast<std::size_t>(
        hashRange(V.data(), V.data() + V.size()));
  }
};

/// Working data for one (operator, operand position) during generation.
struct PosData {
  /// Nonterminals that occur at this operand position in rules of the
  /// operator (sorted, unique).
  std::vector<NonterminalId> Relevant;
  /// Nt -> index in Relevant, or ~0u.
  std::vector<std::uint32_t> NtIndex;
  /// Projection -> representer index.
  std::unordered_map<std::vector<std::uint32_t>, std::uint32_t, ProjHash>
      RepByProj;
  /// Representer index -> canonical projected cost vector.
  std::vector<std::vector<Cost>> RepVectors;
  /// StateId -> representer index.
  std::vector<std::uint32_t> RepOfState;
};

/// The whole generation state machine.
class Generator {
public:
  Generator(const Grammar &G, unsigned MaxStates,
            std::vector<std::uint8_t> InPart)
      : G(G), MaxStates(MaxStates), InPart(std::move(InPart)), Computer(G),
        States(std::make_unique<StateTable>(G.numNonterminals())) {}

  Expected<CompiledTables> run();

private:
  Error processState(StateId S);
  Error enumerateWithNewRep(OperatorId Op, unsigned Pos, std::uint32_t Rep);
  /// Computes, interns and records the state of a tuple not seen before.
  Error addTransition(OperatorId Op,
                      const SmallVectorImpl<std::uint32_t> &Tuple);
  /// Interns the state (arrays of the nonterminal count) and queues it
  /// for processing if it is new.
  const State *internComputed(OperatorId Op, const Cost *Costs,
                              const RuleId *Rules);
  Error stateLimitError() const {
    return Error::make(ErrorKind::StateLimitExceeded,
                       "offline generation exceeded the state limit (" +
                           std::to_string(MaxStates) + " states)");
  }

  static std::uint64_t tupleKey(const SmallVectorImpl<std::uint32_t> &Tuple) {
    std::uint64_t Key = 0;
    for (std::uint32_t R : Tuple)
      Key = (Key << 16) | R;
    return Key;
  }

  const Grammar &G;
  unsigned MaxStates;
  /// One byte per operator; 0 = excluded from generation (the hybrid
  /// backend's dyn-cost remainder). All-ones for full generation.
  std::vector<std::uint8_t> InPart;
  StateComputer Computer;
  std::unique_ptr<StateTable> States;
  std::vector<SmallVector<PosData, 2>> Pos; // Indexed by op.
  std::vector<std::unordered_map<std::uint64_t, StateId>> Trans; // By op.
  std::deque<StateId> Worklist;
  SelectionStats GenWork;
  std::vector<std::uint32_t> Proj; ///< processState's reused buffer.
};

Expected<CompiledTables> Generator::run() {
  unsigned NumOps = G.numOperators();
  assert(InPart.size() == NumOps && "membership vector must cover every op");

  // Dynamic costs are fundamentally unsupported on member operators: the
  // tables are fixed before the subject tree exists. Name the offenders —
  // the user otherwise has to hunt through the grammar — and point at the
  // backend built for exactly this situation.
  {
    std::string DynOps;
    for (OperatorId Op = 0; Op < NumOps; ++Op) {
      if (!InPart[Op] || G.dynRulesFor(Op).empty())
        continue;
      if (!DynOps.empty())
        DynOps += ", ";
      DynOps += "'" + G.operatorName(Op) + "'";
    }
    if (!DynOps.empty())
      return Error::make(
          ErrorKind::UnsupportedDynamicCosts,
          "offline tables cannot encode dynamic costs: operator(s) " +
              DynOps +
              " carry dynamic-cost rules; use --backend=hybrid (offline "
              "tables on the static partition, on-demand for the rest), "
              "strip the dynamic rules (grammar::withoutDynCostRules), or "
              "use the on-demand automaton");
  }

  Stopwatch Timer;

  // Prepare per-(op, position) relevant-nonterminal sets.
  Pos.resize(NumOps);
  Trans.resize(NumOps);
  for (OperatorId Op = 0; Op < NumOps; ++Op) {
    if (!InPart[Op])
      continue; // Excluded operators are the on-demand path's business.
    unsigned Arity = G.operatorArity(Op);
    if (Arity > 4)
      return Error::make("offline tables support operator arity <= 4 ('" +
                         G.operatorName(Op) + "' has arity " +
                         std::to_string(Arity) + ")");
    for (unsigned P = 0; P < Arity; ++P) {
      PosData D;
      D.NtIndex.assign(G.numNonterminals(), ~0u);
      for (RuleId RId : G.baseRulesFor(Op)) {
        NonterminalId Nt = G.normRule(RId).Operands[P];
        if (D.NtIndex[Nt] == ~0u) {
          D.NtIndex[Nt] = static_cast<std::uint32_t>(D.Relevant.size());
          D.Relevant.push_back(Nt);
        }
      }
      Pos[Op].push_back(std::move(D));
    }
  }

  // Seed with leaf-operator states.
  std::vector<StateId> LeafStates(NumOps, InvalidState);
  for (OperatorId Op = 0; Op < NumOps; ++Op) {
    if (!InPart[Op] || G.operatorArity(Op) != 0)
      continue;
    SmallVector<Cost, 32> Costs;
    SmallVector<RuleId, 32> Rules;
    Computer.compute(
        Op, [](unsigned, NonterminalId) { return Cost::infinity(); },
        [](unsigned) { return Cost::infinity(); }, Costs, Rules, &GenWork);
    ++GenWork.StatesComputed;
    LeafStates[Op] = internComputed(Op, Costs.data(), Rules.data())->Id;
  }

  if (States->size() > MaxStates)
    return stateLimitError();

  // Fixpoint: drain the worklist FIFO. Projecting a state may create a
  // representer, whose new tuples are computed and interned on the spot;
  // states they discover join the back of the worklist.
  while (!Worklist.empty()) {
    StateId S = Worklist.front();
    Worklist.pop_front();
    if (Error E = processState(S))
      return E;
  }

  // Freeze into dense tables.
  CompiledTables Out;
  TableBuilder::leafStates(Out) = std::move(LeafStates);
  TableBuilder::opTables(Out).resize(NumOps);
  TableBuilder::inPartition(Out) = InPart;
  std::size_t TableBytes = 0;
  std::size_t NumTransitions = 0;
  for (OperatorId Op = 0; Op < NumOps; ++Op) {
    if (!InPart[Op])
      continue; // No leaf state, no rows: labeling must not come here.
    unsigned Arity = G.operatorArity(Op);
    if (Arity == 0) {
      TableBytes += sizeof(StateId);
      continue;
    }
    TableBuilder::OpTable &T = TableBuilder::opTables(Out)[Op];
    std::size_t TableSize = 1;
    for (unsigned P = 0; P < Arity; ++P) {
      PosData &D = Pos[Op][P];
      T.Dims.push_back(static_cast<std::uint32_t>(D.RepVectors.size()));
      D.RepOfState.resize(States->size(), 0);
      T.RepMaps.emplace_back(std::move(D.RepOfState));
      TableSize *= T.Dims.back();
      TableBytes += T.RepMaps.back().size() * sizeof(std::uint32_t);
    }
    T.Table.assign(TableSize, InvalidState);
    // Fill from the transition map: walk all tuples in row-major order.
    SmallVector<std::uint32_t, 4> Tuple(Arity, 0);
    for (std::size_t Flat = 0; Flat < TableSize; ++Flat) {
      std::size_t Rest = Flat;
      for (unsigned P = Arity; P-- > 0;) {
        Tuple[P] = static_cast<std::uint32_t>(Rest % T.Dims[P]);
        Rest /= T.Dims[P];
      }
      auto It = Trans[Op].find(tupleKey(Tuple));
      assert(It != Trans[Op].end() && "transition tuple never enumerated");
      T.Table[Flat] = It->second;
    }
    TableBytes += T.Table.size() * sizeof(StateId);
    NumTransitions += TableSize;
  }

  CompiledTables::Stats &St = TableBuilder::stats(Out);
  St.NumStates = States->size();
  St.NumTransitions = NumTransitions;
  St.TableBytes = TableBytes;
  St.GenerationMs = Timer.elapsedMs();
  St.StatesComputed = GenWork.StatesComputed;
  TableBuilder::states(Out) = std::move(States);
  return Out;
}

const State *Generator::internComputed(OperatorId Op, const Cost *Costs,
                                       const RuleId *Rules) {
  unsigned Before = States->size();
  const State *S = States->intern(Op, Costs, Rules);
  if (States->size() > Before)
    Worklist.push_back(S->Id);
  return S;
}

Error Generator::processState(StateId SId) {
  const State *S = States->byId(SId);
  for (OperatorId Op = 0; Op < G.numOperators(); ++Op) {
    if (!InPart[Op])
      continue; // Pos[Op] was never prepared for excluded operators.
    for (unsigned P = 0; P < G.operatorArity(Op); ++P) {
      PosData &D = Pos[Op][P];
      // Project the state onto the position's relevant nonterminals and
      // re-normalize so that positions see representers, not raw states;
      // the map copies the reused buffer only for a new projection.
      Proj.resize(D.Relevant.size());
      Cost Min = Cost::infinity();
      for (std::size_t I = 0; I < D.Relevant.size(); ++I)
        Min = std::min(Min, S->costOf(D.Relevant[I]));
      for (std::size_t I = 0; I < D.Relevant.size(); ++I) {
        Cost C = S->costOf(D.Relevant[I]);
        if (C.isFinite() && Min.isFinite())
          C = C - Min;
        Proj[I] = C.raw();
      }
      if (D.RepOfState.size() <= SId)
        D.RepOfState.resize(SId + 1, 0);
      auto It = D.RepByProj.find(Proj);
      bool New = It == D.RepByProj.end();
      if (New)
        It = D.RepByProj
                 .emplace(Proj, static_cast<std::uint32_t>(D.RepVectors.size()))
                 .first;
      D.RepOfState[SId] = It->second;
      if (!New)
        continue;
      if (D.RepVectors.size() >= 0xFFFF)
        return Error::make("too many representer states for operator '" +
                           G.operatorName(Op) + "'");
      std::vector<Cost> RepVec(D.Relevant.size());
      for (std::size_t I = 0; I < D.Relevant.size(); ++I)
        RepVec[I] = Cost(It->first[I]);
      D.RepVectors.push_back(std::move(RepVec));
      if (Error E = enumerateWithNewRep(Op, P, It->second))
        return E;
    }
  }
  return Error::success();
}

Error Generator::enumerateWithNewRep(OperatorId Op, unsigned FixedPos,
                                     std::uint32_t Rep) {
  unsigned Arity = G.operatorArity(Op);
  SmallVector<std::uint32_t, 4> Tuple(Arity, 0);
  Tuple[FixedPos] = Rep;
  SmallVector<unsigned, 4> Free;
  for (unsigned P = 0; P < Arity; ++P)
    if (P != FixedPos)
      Free.push_back(P);
  // A free position without representers yet means no complete tuples
  // exist; they will be enumerated when that position's first representer
  // appears.
  for (unsigned P : Free)
    if (Pos[Op][P].RepVectors.empty())
      return Error::success();
  // Odometer over the free positions' existing representers.
  while (true) {
    if (Error E = addTransition(Op, Tuple))
      return E;
    unsigned K = Free.size();
    while (K > 0) {
      unsigned P = Free[K - 1];
      if (++Tuple[P] < Pos[Op][P].RepVectors.size())
        break;
      Tuple[P] = 0;
      --K;
    }
    if (K == 0)
      break;
  }
  return Error::success();
}

Error Generator::addTransition(OperatorId Op,
                               const SmallVectorImpl<std::uint32_t> &Tuple) {
  auto [It, New] = Trans[Op].try_emplace(tupleKey(Tuple), InvalidState);
  if (!New)
    return Error::success();
  // Pure DP over the tuple's representer vectors, which never change once
  // assigned.
  ++GenWork.StatesComputed;
  SmallVector<Cost, 32> Costs;
  SmallVector<RuleId, 32> Rules;
  Computer.compute(
      Op,
      [&](unsigned Position, NonterminalId Nt) {
        const PosData &D = Pos[Op][Position];
        std::uint32_t Idx = D.NtIndex[Nt];
        assert(Idx != ~0u && "rule reads an irrelevant nonterminal");
        return D.RepVectors[Tuple[Position]][Idx];
      },
      [](unsigned) { return Cost::infinity(); }, Costs, Rules, &GenWork);
  It->second = internComputed(Op, Costs.data(), Rules.data())->Id;
  if (States->size() > MaxStates)
    return stateLimitError();
  return Error::success();
}

} // namespace

OfflineTableGen::OfflineTableGen(const Grammar &G, unsigned MaxStates)
    : G(G), MaxStates(MaxStates) {
  assert(G.isFinalized() && "grammar must be finalized");
}

Expected<CompiledTables> OfflineTableGen::generate() {
  return generateSubset(
      std::vector<std::uint8_t>(G.numOperators(), std::uint8_t(1)));
}

Expected<CompiledTables>
OfflineTableGen::generateSubset(std::span<const std::uint8_t> InPartition) {
  assert(InPartition.size() == G.numOperators() &&
         "membership vector must cover every operator");
  return Generator(
             G, MaxStates,
             std::vector<std::uint8_t>(InPartition.begin(), InPartition.end()))
      .run();
}

std::uint64_t CompiledTables::fingerprint() const {
  std::uint64_t H = 0x0DB0B6u;
  unsigned NumStates = States->size();
  unsigned NumNts = States->numNonterminals();
  H = hashCombine(H, NumStates);
  for (StateId Id = 0; Id < NumStates; ++Id) {
    const State *S = States->byId(Id);
    H = hashCombine(H, S->Op);
    for (NonterminalId Nt = 0; Nt < NumNts; ++Nt) {
      H = hashCombine(H, S->costOf(Nt).raw());
      H = hashCombine(H, S->ruleOf(Nt));
    }
  }
  H = hashRange(LeafStates.data(), LeafStates.data() + LeafStates.size(), H);
  for (const OpTable &T : OpTables) {
    H = hashRange(T.Dims.begin(), T.Dims.end(), H);
    for (const std::vector<std::uint32_t> &M : T.RepMaps)
      H = hashRange(M.data(), M.data() + M.size(), H);
    H = hashRange(T.Table.data(), T.Table.data() + T.Table.size(), H);
  }
  H = hashCombine(H, partitionFingerprint());
  return H;
}

std::uint64_t CompiledTables::partitionFingerprint() const {
  std::uint64_t H = 0x0DB09A27u;
  H = hashCombine(H, InPartition.size());
  H = hashRange(InPartition.data(), InPartition.data() + InPartition.size(),
                H);
  return H;
}

bool CompiledTables::isPartitioned() const {
  for (std::uint8_t M : InPartition)
    if (!M)
      return true;
  return false;
}

OfflinePartitionView CompiledTables::makePartitionView() const {
  OfflinePartitionView PV;
  unsigned NumOps = static_cast<unsigned>(LeafStates.size());
  PV.Ops.resize(NumOps);
  PV.NumStates = States->size();
  for (OperatorId Op = 0; Op < NumOps; ++Op) {
    OfflinePartitionView::OpEntry &E = PV.Ops[Op];
    E.InPartition = inPartition(Op);
    if (!E.InPartition)
      continue;
    E.Leaf = LeafStates[Op];
    const OpTable &T = OpTables[Op];
    for (unsigned P = 0; P < T.Dims.size(); ++P) {
      E.Dims[P] = T.Dims[P];
      E.RepMaps[P] = T.RepMaps[P].data();
    }
    E.Table = T.Table.data();
  }
  return PV;
}

namespace {

/// Serialization format tag. Bump the version on any layout change; load()
/// rejects unknown versions rather than guessing.
constexpr char TablesMagic[8] = {'O', 'D', 'B', 'U', 'R', 'G', 'T', '\0'};
/// Version 2 added the partition fingerprint and the per-operator
/// membership bytes (hybrid backend partitioned dumps); version-1 files
/// are rejected, not guessed at — regenerate them.
constexpr std::uint32_t TablesVersion = 2;

/// Little-endian fixed-width primitives. The build targets little-endian
/// hosts (x86-64/aarch64); memcpy keeps the access alignment-safe.
template <typename T> void writeRaw(std::ostream &OS, T V) {
  static_assert(std::is_trivially_copyable_v<T>);
  OS.write(reinterpret_cast<const char *>(&V), sizeof(T));
}

template <typename T> bool readRaw(std::istream &IS, T &V) {
  static_assert(std::is_trivially_copyable_v<T>);
  IS.read(reinterpret_cast<char *>(&V), sizeof(T));
  return static_cast<bool>(IS);
}

Error truncatedError() {
  return Error::make(ErrorKind::MalformedInput,
                     "offline tables: truncated or unreadable stream");
}

} // namespace

Error CompiledTables::dump(std::ostream &OS) const {
  OS.write(TablesMagic, sizeof(TablesMagic));
  writeRaw(OS, TablesVersion);
  writeRaw(OS, fingerprint());
  writeRaw(OS, partitionFingerprint());

  unsigned NumStates = States->size();
  unsigned NumNts = States->numNonterminals();
  std::uint32_t NumOps = static_cast<std::uint32_t>(LeafStates.size());
  writeRaw(OS, NumOps);
  writeRaw(OS, static_cast<std::uint32_t>(NumNts));
  writeRaw(OS, static_cast<std::uint32_t>(NumStates));

  // Per-operator partition membership (all ones for a full generation).
  for (std::uint32_t Op = 0; Op < NumOps; ++Op)
    writeRaw(OS, static_cast<std::uint8_t>(inPartition(Op) ? 1 : 0));

  // States in id order: operator, then the raw cost and rule vectors
  // (raw() keeps the infinity encoding intact).
  for (StateId Id = 0; Id < NumStates; ++Id) {
    const State *S = States->byId(Id);
    writeRaw(OS, S->Op);
    for (NonterminalId Nt = 0; Nt < NumNts; ++Nt)
      writeRaw(OS, S->costOf(Nt).raw());
    for (NonterminalId Nt = 0; Nt < NumNts; ++Nt)
      writeRaw(OS, S->ruleOf(Nt));
  }

  for (StateId Leaf : LeafStates)
    writeRaw(OS, Leaf);

  for (const OpTable &T : OpTables) {
    writeRaw(OS, static_cast<std::uint32_t>(T.Dims.size()));
    if (T.Dims.empty())
      continue; // Leaf operator: no representer maps, no table.
    for (std::uint32_t D : T.Dims)
      writeRaw(OS, D);
    for (const std::vector<std::uint32_t> &Map : T.RepMaps) {
      writeRaw(OS, static_cast<std::uint64_t>(Map.size()));
      for (std::uint32_t R : Map)
        writeRaw(OS, R);
    }
    writeRaw(OS, static_cast<std::uint64_t>(T.Table.size()));
    for (StateId S : T.Table)
      writeRaw(OS, S);
  }

  if (!OS)
    return Error::make("offline tables: stream write failed");
  return Error::success();
}

Expected<CompiledTables> CompiledTables::load(std::istream &IS,
                                              const Grammar &G) {
  Stopwatch Timer;

  if (fault::shouldFail(fault::Site::TablesLoad))
    return Error::make(ErrorKind::MalformedInput,
                       "offline tables: injected load fault");

  char Magic[sizeof(TablesMagic)];
  IS.read(Magic, sizeof(Magic));
  if (!IS || std::memcmp(Magic, TablesMagic, sizeof(Magic)) != 0)
    return Error::make(ErrorKind::MalformedInput,
                       "offline tables: bad magic (not a table dump)");
  std::uint32_t Version = 0;
  std::uint64_t StoredFingerprint = 0, StoredPartFingerprint = 0;
  std::uint32_t NumOps = 0, NumNts = 0, NumStates = 0;
  if (!readRaw(IS, Version) || !readRaw(IS, StoredFingerprint) ||
      !readRaw(IS, StoredPartFingerprint) || !readRaw(IS, NumOps) ||
      !readRaw(IS, NumNts) || !readRaw(IS, NumStates))
    return truncatedError();
  if (Version != TablesVersion)
    return Error::make(ErrorKind::MalformedInput,
                       "offline tables: unsupported format version " +
                           std::to_string(Version));
  if (NumOps != G.numOperators() || NumNts != G.numNonterminals())
    return Error::make(
        ErrorKind::MalformedInput,
        "offline tables: grammar shape mismatch (dump has " +
            std::to_string(NumOps) + " operators / " + std::to_string(NumNts) +
            " nonterminals, grammar has " + std::to_string(G.numOperators()) +
            " / " + std::to_string(G.numNonterminals()) + ")");
  if (NumStates > StateTable::maxCapacity())
    return Error::make(ErrorKind::MalformedInput,
                       "offline tables: implausible state count " +
                           std::to_string(NumStates));

  CompiledTables Out;

  // Partition membership, keyed by its own fingerprint so a corrupted
  // membership block fails here with a precise diagnostic rather than at
  // the whole-file fingerprint check. Member operators must be dyn-free
  // in \p G — the tables were fixed before any subject tree, so they
  // cannot serve an operator whose costs are decided per node. (A full
  // dump therefore still rejects any dynamic-cost grammar; a partitioned
  // dump accepts one as long as the dyn-cost operators are excluded.)
  std::vector<std::uint8_t> &Membership = TableBuilder::inPartition(Out);
  Membership.resize(NumOps, 0);
  for (std::uint32_t Op = 0; Op < NumOps; ++Op) {
    if (!readRaw(IS, Membership[Op]))
      return truncatedError();
    if (Membership[Op] > 1)
      return Error::make(ErrorKind::MalformedInput,
                         "offline tables: invalid partition membership byte");
  }
  if (Out.partitionFingerprint() != StoredPartFingerprint)
    return Error::make(ErrorKind::MalformedInput,
                       "offline tables: partition fingerprint mismatch — "
                       "the membership block is corrupted");
  for (std::uint32_t Op = 0; Op < NumOps; ++Op)
    if (Membership[Op] &&
        !G.dynRulesFor(static_cast<OperatorId>(Op)).empty())
      return Error::make(
          ErrorKind::UnsupportedDynamicCosts,
          "offline tables cannot serve dynamic costs: operator '" +
              G.operatorName(static_cast<OperatorId>(Op)) +
              "' carries dynamic-cost rules but is a member of the dumped "
              "partition; regenerate the tables (or use --backend=hybrid, "
              "which excludes dyn-cost operators)");
  TableBuilder::states(Out) = std::make_unique<StateTable>(NumNts);
  StateTable &States = *TableBuilder::states(Out);

  // Reconstruct the states by interning in id order; a canonical dump has
  // no duplicates, so the table hands back exactly the recorded ids.
  std::vector<Cost> Costs(NumNts);
  std::vector<RuleId> Rules(NumNts);
  for (StateId Id = 0; Id < NumStates; ++Id) {
    OperatorId Op = InvalidOperator;
    if (!readRaw(IS, Op))
      return truncatedError();
    for (unsigned Nt = 0; Nt < NumNts; ++Nt) {
      Cost::ValueType Raw = 0;
      if (!readRaw(IS, Raw))
        return truncatedError();
      Costs[Nt] = Cost(Raw);
    }
    for (unsigned Nt = 0; Nt < NumNts; ++Nt)
      if (!readRaw(IS, Rules[Nt]))
        return truncatedError();
    const State *S = States.intern(Op, Costs.data(), Rules.data());
    if (S->Id != Id)
      return Error::make(ErrorKind::MalformedInput,
                         "offline tables: duplicate state in dump (id " +
                             std::to_string(Id) + " interned as " +
                             std::to_string(S->Id) + ")");
  }

  std::vector<StateId> &LeafStates = TableBuilder::leafStates(Out);
  LeafStates.resize(NumOps, InvalidState);
  for (std::uint32_t Op = 0; Op < NumOps; ++Op)
    if (!readRaw(IS, LeafStates[Op]))
      return truncatedError();

  std::vector<OpTable> &OpTables = TableBuilder::opTables(Out);
  OpTables.resize(NumOps);
  std::size_t TableBytes = 0;
  std::size_t NumTransitions = 0;
  for (std::uint32_t Op = 0; Op < NumOps; ++Op) {
    OpTable &T = OpTables[Op];
    std::uint32_t Arity = 0;
    if (!readRaw(IS, Arity))
      return truncatedError();
    // Non-member operators dump no rows (a bare zero); member operators
    // must match the grammar's arity exactly.
    std::uint32_t ExpectedArity =
        Membership[Op] ? G.operatorArity(static_cast<OperatorId>(Op)) : 0;
    if (Arity != ExpectedArity)
      return Error::make(ErrorKind::MalformedInput,
                         "offline tables: arity mismatch for operator '" +
                             G.operatorName(static_cast<OperatorId>(Op)) +
                             "'");
    if (Arity == 0) {
      if (Membership[Op])
        TableBytes += sizeof(StateId);
      continue;
    }
    // Bound the dense-table dimensions before allocating anything from
    // them: generation caps representer counts below 0xFFFF per
    // position, so any larger dim — or a product past a generous global
    // cap — is a corrupt or hostile file, and must fail typed instead
    // of dying in a giant resize().
    constexpr std::size_t MaxTableEntries = std::size_t(1) << 28;
    std::size_t TableSize = 1;
    for (std::uint32_t P = 0; P < Arity; ++P) {
      std::uint32_t Dim = 0;
      if (!readRaw(IS, Dim))
        return truncatedError();
      if (Dim >= 0xFFFF || (Dim != 0 && TableSize > MaxTableEntries / Dim))
        return Error::make(ErrorKind::MalformedInput,
                           "offline tables: implausible table dimensions "
                           "for operator '" +
                               G.operatorName(static_cast<OperatorId>(Op)) +
                               "'");
      T.Dims.push_back(Dim);
      TableSize *= Dim;
    }
    for (std::uint32_t P = 0; P < Arity; ++P) {
      std::uint64_t MapSize = 0;
      if (!readRaw(IS, MapSize) || MapSize != NumStates)
        return truncatedError();
      std::vector<std::uint32_t> Map(static_cast<std::size_t>(MapSize));
      for (std::uint32_t &R : Map)
        if (!readRaw(IS, R))
          return truncatedError();
      TableBytes += Map.size() * sizeof(std::uint32_t);
      T.RepMaps.emplace_back(std::move(Map));
    }
    std::uint64_t StoredSize = 0;
    if (!readRaw(IS, StoredSize) || StoredSize != TableSize)
      return truncatedError();
    T.Table.resize(static_cast<std::size_t>(StoredSize));
    for (StateId &S : T.Table)
      if (!readRaw(IS, S))
        return truncatedError();
    TableBytes += T.Table.size() * sizeof(StateId);
    NumTransitions += T.Table.size();
  }

  // The decisive check: the reconstructed automaton must hash to exactly
  // the fingerprint the dumping process recorded. Anything — a flipped
  // byte, a different grammar with the same shape — fails here.
  if (Out.fingerprint() != StoredFingerprint)
    return Error::make(
        ErrorKind::MalformedInput,
        "offline tables: fingerprint mismatch — the dump was generated for "
        "a different grammar or is corrupted");

  Stats &St = TableBuilder::stats(Out);
  St.NumStates = NumStates;
  St.NumTransitions = NumTransitions;
  St.TableBytes = TableBytes;
  St.GenerationMs = Timer.elapsedMs();
  St.StatesComputed = 0;
  St.Loaded = true;
  return Out;
}
