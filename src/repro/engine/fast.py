"""The fast execution tier: superblock traces over live state.

Design contract (see DESIGN.md "Tiered execution"):

* **All mutable state stays in the reference objects** — cores, regfile
  lists, caches, store buffers, signature units, monitor stats.  The
  fast tier only replaces *code*: a generated two-core span loop that
  folds the per-cycle attribute chasing of :meth:`repro.cpu.core.Core.
  step` into locals, per-PC fetch/issue handlers generated by
  :mod:`repro.engine.plan`, and an inlined monitor-observe closure.
  Because state never moves, the fast tier can hand any individual
  decision back to the reference interpreter mid-cycle (a *deopt*) and
  the two tiers interleave freely.
* **Superblock traces**: each compiled fetch handler returns the *link*
  to its successor block — a ``(next_pc, fetch_fn)`` tuple threaded
  through one-slot link cells — so steady-state fetch crosses
  unconditional jumps and profile-biased branch directions without any
  dictionary dispatch.  A branch's off-trace arm holds a link with a
  ``None`` function: a *direction guard* whose failure side-exits to
  the block tier (cold dictionary dispatch) mid-cycle, never skipping a
  cycle — SafeDM samples signatures every cycle.  After
  ``GUARD_RELINK_THRESHOLD`` consecutive guard failures the off-trace
  arm is linked too and the branch is re-specialized with the opposite
  bias (adaptive recompilation); a page-version failure rebuilds the
  block in place up to ``REBUILD_BUDGET`` times before pinning the PC
  to the reference path.
* **Deopt on anything the plan cannot prove static**: plan miss,
  page-version mismatch past budget, issue-shape mismatch, and
  memory-stage hazards the in-line L1 probe cannot retire.  Each
  delegation calls the corresponding reference method on the same
  objects, so the result is bit-identical by construction.
* **Checkpoints**: ``state_dict``/``load_state_dict`` replace interior
  lists and dicts, which invalidates captured locals —
  :meth:`FastRunner._rebuild` recreates every closure after any
  checkpoint callback, and forks build fresh runners.
"""

from __future__ import annotations

from ..core.monitor import ReportingMode
from ..core.signatures import _DIGEST_BASE, _DIGEST_MOD
from ..mem.store_buffer import StoreEntry
from .plan import (
    ACC_BRANCH,
    ACC_COMMIT,
    ACC_DECHIT,
    ACC_DECMISS,
    ACC_DUAL,
    ACC_FETCH,
    ACC_GUARD,
    ACC_IFAST,
    ACC_IFMISS,
    ACC_IREF,
    ACC_ISSUED,
    ACC_LOADS,
    ACC_MEM,
    ACC_MULDIV,
    ACC_PAGE,
    ACC_PLAN,
    ACC_SHAPE,
    ACC_SIZE,
    ACC_STORES,
    GUARD_RELINK_THRESHOLD,
    KIND_BRANCH,
    REBUILD_BUDGET,
)

_MISS = object()

_XMASK = 0xFFFFFFFFFFFFFFFF

#: Link-cell content that can never match a fetch PC (jalr/halt
#: successors, pinned targets): routes the next fetch to cold dispatch.
_DEAD_LINK = (-1, None)

_AZEROS = [0] * ACC_SIZE


def _make_retire(instrs, core, acc, writes):
    """Specialized Core._retire for one instruction-words shape.

    Which slots record a writeback — destination present *and* a result
    value produced — is static per instruction: ALU/MUL/DIV and jumps
    set ``result`` at issue, loads at the memory stage, and branches,
    stores, and system instructions never do.  Commit counters defer
    into the engine's ``acc`` slots; ``commits_this_cycle`` stays live
    because the monitor reads it the same cycle.
    """
    recs = []
    n = len(instrs)
    loads = stores = branches = muldiv = 0
    for slot, instr in enumerate(instrs):
        dest = instr.destination()
        iclass = instr.iclass
        if dest is not None and iclass in ("alu", "mul", "div", "jump",
                                           "load"):
            recs.append((slot, dest))
        if iclass == "load":
            loads += 1
        elif iclass == "store":
            stores += 1
        elif iclass == "branch":
            branches += 1
        elif iclass in ("mul", "div"):
            muldiv += 1
    recs = tuple(recs)
    words = tuple(instr.word for instr in instrs)

    def retire(group, committed_words, recs=recs, n=n, loads=loads,
               stores=stores, branches=branches, muldiv=muldiv,
               words=words, core=core, acc=acc, writes=writes,
               _XMASK=_XMASK, _AC=ACC_COMMIT, _AL=ACC_LOADS,
               _AS=ACC_STORES, _AB=ACC_BRANCH, _AM=ACC_MULDIV):
        fis = group.instrs
        for slot, dest in recs:
            writes[slot] = (1, fis[slot].result & _XMASK)
        acc[_AC] += n
        if loads:
            acc[_AL] += loads
        if stores:
            acc[_AS] += stores
        if branches:
            acc[_AB] += branches
        if muldiv:
            acc[_AM] += muldiv
        core.commits_this_cycle = n
        committed_words += words

    return retire


def _make_init_me(instrs, core):
    """Specialized Core._initiate_me for one instruction-words shape.

    Returns ``None`` when the group has no load or store (the caller
    inlines the trivial no-memory transition).  Otherwise returns a
    closure ``init_me(group, cycle) -> bool`` that reproduces
    ``_initiate_me`` + ``_initiate_load``/``_initiate_store`` statement
    for statement — same store-buffer scan order, same D-cache LRU and
    counter updates, same bus-request ordering.  The L1 tag probe and
    store-buffer occupancy check run in-line over the read-only views
    exported by :meth:`repro.mem.cache.Cache.tag_view` and
    :meth:`repro.mem.store_buffer.StoreBuffer.occupancy_view`; the
    closure deopts to the reference memory stage only on an actual
    hazard.  A ``False`` return means "deopt before any side effect"
    (misaligned store: the reference path raises) and the caller
    replays via the reference.

    ``can_pair`` admits at most one memory operation per group, so the
    per-shape record is a single slot.
    """
    rec = None
    for slot, instr in enumerate(instrs):
        spec = instr.spec
        if spec.is_memory:
            rec = (slot, spec.is_load, spec.size, spec.signed, instr.rd)
    if rec is None:
        return None
    slot, is_load, size, signed, rd = rec
    amask = size - 1
    sign_bit = 1 << (8 * size - 1)
    wrap = 1 << (8 * size)
    smask = wrap - 1
    sb = core.store_buffer
    sb_entries = sb.occupancy_view()
    sb_depth = sb.depth
    sb_coalesce = sb.coalesce
    sbstats = sb.stats
    line_mask = ~(sb.bus.l2.config.line_size - 1)
    mem = core.memory
    pages = mem._pages
    mem_page = mem._page
    versions = mem.page_versions
    dcache = core.dcache
    dsets, dshift, dmask = dcache.tag_view()
    dstats = dcache.stats
    hit_latency = core.config.dcache_hit_latency
    request_line = core.bus.request_line
    core_id = core.core_id
    regfile = core.regfile
    values = regfile.values
    ready = regfile.ready_cycle

    if is_load:
        def init_me(group, cycle, slot=slot, amask=amask,
                    sign_bit=sign_bit, wrap=wrap, sb=sb,
                    sb_entries=sb_entries, line_mask=line_mask,
                    pages=pages, mem_page=mem_page, dsets=dsets,
                    dshift=dshift, dmask=dmask, dstats=dstats,
                    hit_latency=hit_latency, request_line=request_line,
                    core_id=core_id, values=values, ready=ready,
                    size=size, signed=signed, rd=rd, _XMASK=_XMASK):
            fetched = group.instrs[slot]
            address = fetched.effective_address
            group.me_requests = []
            # Store-to-load ordering: wait for pending stores to the
            # line (StoreBuffer.contains_line, inlined).
            line = address & line_mask
            inflight = sb._inflight
            if inflight is not None and inflight.address == line:
                group.me_initiated = False
                group.me_ready_cycle = None
                return True
            for entry in sb_entries:
                if entry.line_address == line:
                    group.me_initiated = False
                    group.me_ready_cycle = None
                    return True
            group.me_initiated = True
            # Memory.read of the aligned-down address (the reference
            # masks, so loads never raise) + sign_extend_load.
            aligned = address - (address & amask)
            page = pages.get(aligned >> 12)
            if page is None:
                page = mem_page(aligned)
            start = aligned & 4095
            raw = int.from_bytes(page[start:start + size], "little")
            if signed and raw & sign_bit:
                raw = (raw - wrap) & _XMASK
            fetched.result = raw
            if rd:
                values[rd] = raw
            # Cache.lookup (MRU fast path first; remove+insert at the
            # head is order-neutral when already most-recent).
            dline = address >> dshift
            tags = dsets[dline & dmask]
            if tags and tags[0] == dline:
                dstats.hits += 1
            elif dline in tags:
                tags.remove(dline)
                tags.insert(0, dline)
                dstats.hits += 1
            else:
                dstats.misses += 1
                group.me_requests.append(
                    (request_line(core_id, address, cycle), fetched))
                group.me_ready_cycle = None
                return True
            rdy = cycle + hit_latency
            mrc = cycle + 1
            group.me_ready_cycle = rdy if rdy > mrc else mrc
            if rd:
                ready[rd] = rdy
            return True
    else:
        def init_me(group, cycle, slot=slot, amask=amask, smask=smask,
                    sb=sb, sb_entries=sb_entries, sb_depth=sb_depth,
                    sb_coalesce=sb_coalesce, sbstats=sbstats,
                    line_mask=line_mask, pages=pages,
                    mem_page=mem_page, versions=versions, dsets=dsets,
                    dshift=dshift, dmask=dmask, dstats=dstats,
                    size=size, StoreEntry=StoreEntry):
            fetched = group.instrs[slot]
            address = fetched.effective_address
            if address & amask:
                return False      # misaligned: the reference path raises
            group.me_requests = []
            # StoreBuffer.push, inlined (same scan/stat order).
            line = address & line_mask
            pushed = False
            if sb_coalesce:
                for entry in sb_entries:
                    if entry.line_address == line:
                        entry.stores += 1
                        sbstats.stores_accepted += 1
                        sbstats.coalesced += 1
                        pushed = True
                        break
            if not pushed:
                if len(sb_entries) >= sb_depth:
                    sbstats.full_stalls += 1
                    group.me_initiated = False    # buffer full: retry
                    group.me_ready_cycle = None
                    return True
                sb_entries.append(StoreEntry(line))
                sbstats.stores_accepted += 1
            group.me_initiated = True
            group.me_ready_cycle = cycle + 1
            # Memory.write (aligned by the check above) + page-version
            # bump, then the write-through no-allocate D-cache touch.
            page = pages.get(address >> 12)
            if page is None:
                page = mem_page(address)
            start = address & 4095
            page[start:start + size] = (fetched.store_value
                                        & smask).to_bytes(size, "little")
            key = address >> 12
            versions[key] = versions.get(key, 0) + 1
            dline = address >> dshift
            tags = dsets[dline & dmask]
            if tags and tags[0] == dline:
                dstats.hits += 1
            elif dline in tags:
                tags.remove(dline)
                tags.insert(0, dline)
                dstats.hits += 1
            else:
                dstats.misses += 1
            return True

    return init_me


def _make_core_engine(core, plan, estats):
    """Per-core runtime for the generated span loop.

    Returns ``(args, teardown)``.  ``args`` is the argument tuple
    ``_make_span`` expects for one core (see ``_CORE_ARGS``): live
    bindings, the deferred-counter list, the cold dispatch helpers, the
    one-slot ``fbox`` carrying the current superblock link across span
    boundaries, and the span-exit ``flush``.  ``teardown()`` unlinks
    the engine once its runner drops it (see :meth:`FastRunner.release`).

    The cold helpers own the *superblock former*: a registry of link
    *nodes* (``(pc, fetch_fn)`` tuples) plus the cells that reference
    them.  ``fetch_cold`` materializes nodes on first touch,
    ``guard_cold`` counts direction-guard failures and relinks +
    re-biases the owning branch at ``GUARD_RELINK_THRESHOLD``, and
    ``page_cold`` rebuilds a block after self-modifying code up to
    ``REBUILD_BUDGET`` times before pinning the PC to the reference
    path.  Cold-helper return codes are ``advanced | (reference << 1)``
    with the successor link left in ``fbox[0]``.
    """
    stages = core.stages
    stats = core.stats
    regfile = core.regfile
    values = regfile.values
    ready = regfile.ready_cycle
    reads = regfile.read_samples
    writes = regfile.write_samples
    idle_reads = regfile._idle_reads
    idle_writes = regfile._idle_writes
    sb = core.store_buffer
    icache = core.icache
    isets = icache.tag_view()[0]
    icstats = icache.stats
    fcache = core._fetch_cache
    versions = core.memory.page_versions
    request_line = core.bus.request_line
    predictor = core.predictor
    ptable = predictor._table
    ref_fetch = core._fetch
    ref_sources_ready = core._sources_ready
    ref_issue = core._issue
    initiate_me = core._initiate_me
    ifill = icache.fill
    dfill = core.dcache.fill
    entries = plan.entries
    entry_at = plan.entry_at
    build_issue_maker = plan.build_issue_maker
    build_fetch_maker = plan.build_fetch_maker
    link_targets = plan.link_targets
    acc = [0] * ACC_SIZE
    reasons = estats.deopt_reasons

    #: pc -> (pc, fn) node, or None when pinned to the reference path.
    nodes = {}
    #: pc -> [cells] waiting for the node at pc (chain links).
    pending = {}
    #: pc -> [[fail_count, cell, branch_pc], ...] (direction guards).
    guard_pending = {}
    #: pc -> [cells currently filled with pc's node] (for rebuilds).
    linked = {}
    #: pc -> page re-specialization count (vs REBUILD_BUDGET).
    rebuilds = {}
    #: branch pc -> (entry, bias, link_t, link_f) for re-biasing.
    branch_meta = {}
    #: pc -> (words, issue fn, dual) or None (block-tier dispatch).
    issue_recs = {}
    #: words_cache -> init_me closure / None (no memory op in group).
    me_shapes = {}
    #: words_cache -> retire closure.
    retire_shapes = {}
    #: One-slot box: the current link, persisted across spans and used
    #: as the cold helpers' link-return channel.
    fbox = [None]

    def _issue_fn(entry):
        rec = issue_recs.get(entry.pc)
        if rec is None or rec[0] != entry.words:
            maker = entry.issue_maker
            if maker is None:
                maker = build_issue_maker(entry)
            rec = (entry.words, maker(core, values, ready, reads),
                   1 if entry.n == 2 else 0)
            issue_recs[entry.pc] = rec
        return rec[1]

    def _me_fn(instrs, words):
        fn = me_shapes.get(words, _MISS)
        if fn is _MISS:
            fn = me_shapes[words] = _make_init_me(instrs, core)
        # Attached handlers use False for "no memory op" (None means
        # "dispatch cold" on reference-created and restored groups).
        return False if fn is None else fn

    def _retire_fn(instrs, words):
        fn = retire_shapes.get(words)
        if fn is None:
            fn = retire_shapes[words] = _make_retire(instrs, core, acc,
                                                     writes)
        return fn

    def _instantiate(entry, bias, link_t, link_f):
        instrs = [entry.i0, entry.i1][:entry.n]
        words = entry.words
        ifn = _issue_fn(entry)
        mfn = _me_fn(instrs, words)
        rfn = _retire_fn(instrs, words)
        maker = entry.fetch_makers.get(bias)
        if maker is None:
            maker = build_fetch_maker(entry, bias)
        return maker(core, stages, stats, acc, isets, icstats, fcache,
                     versions, request_line, predictor, ptable,
                     ifn, mfn, rfn, link_t, link_f)

    def _chain_cell(pc):
        node = nodes.get(pc, _MISS)
        if node is _MISS:
            cell = [_DEAD_LINK]
            pending.setdefault(pc, []).append(cell)
            return cell
        if node is None:
            return [_DEAD_LINK]     # pinned target: cold dispatch
        cell = [node]
        linked.setdefault(pc, []).append(cell)
        estats.superblock_links += 1
        return cell

    def _guard_cell(pc, branch_pc):
        cell = [(pc, None)]
        guard_pending.setdefault(pc, []).append([0, cell, branch_pc])
        return cell

    def _pin(pc):
        nodes[pc] = None
        for cell in pending.pop(pc, ()):
            cell[0] = _DEAD_LINK
        for rec in guard_pending.pop(pc, ()):
            rec[1][0] = _DEAD_LINK

    def _node_from_entry(pc, entry):
        chained, guarded = link_targets(entry, ptable)
        bias = False
        if entry.kind == KIND_BRANCH:
            bias = chained == entry.btaken
            if bias:
                link_t = _chain_cell(chained)
                link_f = _guard_cell(guarded, pc)
            else:
                link_t = _guard_cell(guarded, pc)
                link_f = _chain_cell(chained)
        elif chained is None:
            link_t = link_f = [_DEAD_LINK]
        else:
            link_t = _chain_cell(chained)
            link_f = [_DEAD_LINK]
        fn = _instantiate(entry, bias, link_t, link_f)
        node = (pc, fn)
        # Register before resolving self-referential pending cells.
        nodes[pc] = node
        if entry.kind == KIND_BRANCH:
            branch_meta[pc] = (entry, bias, link_t, link_f)
        cells = pending.pop(pc, None)
        if cells:
            lst = linked.setdefault(pc, [])
            for cell in cells:
                cell[0] = node
                lst.append(cell)
                estats.superblock_links += 1
        return node

    def _make_node(pc):
        node = nodes.get(pc, _MISS)
        if node is not _MISS:
            return node
        entry = entries.get(pc, _MISS)
        if entry is _MISS:
            entry = entry_at(pc)
        if entry is None:
            _pin(pc)
            return None
        return _node_from_entry(pc, entry)

    def _flip_branch(branch_pc):
        """Re-specialize a branch with the opposite trace bias."""
        meta = branch_meta.get(branch_pc)
        if meta is None:
            return
        entry, bias, link_t, link_f = meta
        fn = _instantiate(entry, not bias, link_t, link_f)
        node = (branch_pc, fn)
        nodes[branch_pc] = node
        branch_meta[branch_pc] = (entry, not bias, link_t, link_f)
        for cell in linked.get(branch_pc, ()):
            cell[0] = node
        estats.recompilations += 1
        reasons["recompile"] = reasons.get("recompile", 0) + 1

    def fetch_cold(pc, cycle):
        node = _make_node(pc)
        if node is None:
            acc[ACC_PLAN] += 1
            fbox[0] = None
            return 3 if ref_fetch(cycle) else 2
        r = node[1](cycle)
        if r.__class__ is tuple:
            fbox[0] = r
            return 1
        if r == 0:
            # I-line fill requested in-line; retry hits the hot path.
            fbox[0] = node
            return 0
        return page_cold(pc, cycle)

    def guard_cold(pc, cycle):
        recs = guard_pending.get(pc)
        if recs:
            acc[ACC_GUARD] += 1
            keep = []
            for rec in recs:
                rec[0] += 1
                if rec[0] < GUARD_RELINK_THRESHOLD:
                    keep.append(rec)
                    continue
                node = nodes.get(pc, _MISS)
                if node is _MISS:
                    node = _make_node(pc)
                if node is None:
                    rec[1][0] = _DEAD_LINK
                    continue
                rec[1][0] = node
                linked.setdefault(pc, []).append(rec[1])
                estats.superblock_links += 1
                _flip_branch(rec[2])
            if keep and nodes.get(pc, _MISS) is not None:
                guard_pending[pc] = keep
            else:
                guard_pending.pop(pc, None)
        return fetch_cold(pc, cycle)

    def page_cold(pc, cycle):
        count = rebuilds.get(pc, 0) + 1
        rebuilds[pc] = count
        stale = linked.pop(pc, None)
        entry = entry_at(pc) if count <= REBUILD_BUDGET else None
        issue_recs.pop(pc, None)
        if entry is None:
            _pin(pc)
            if stale:
                for cell in stale:
                    cell[0] = _DEAD_LINK
            acc[ACC_PAGE] += 1
            fbox[0] = None
            return 3 if ref_fetch(cycle) else 2
        node = _node_from_entry(pc, entry)
        if stale:
            lst = linked.setdefault(pc, [])
            for cell in stale:
                cell[0] = node
                lst.append(cell)
        estats.recompilations += 1
        reasons["recompile"] = reasons.get("recompile", 0) + 1
        r = node[1](cycle)
        if r.__class__ is tuple:
            fbox[0] = r
            return 1
        if r == 0:
            fbox[0] = node
            return 0
        # Version moved again before execution: delegate this fetch.
        acc[ACC_PAGE] += 1
        fbox[0] = None
        return 3 if ref_fetch(cycle) else 2

    def issue_cold(group, cycle):
        pc = group.instrs[0].pc
        rec = issue_recs.get(pc, _MISS)
        if rec is _MISS:
            entry = entries.get(pc, _MISS)
            if entry is _MISS:
                entry = entry_at(pc)
            if entry is None:
                rec = None
            else:
                maker = entry.issue_maker
                if maker is None:
                    maker = build_issue_maker(entry)
                rec = (entry.words, maker(core, values, ready, reads),
                       1 if entry.n == 2 else 0)
            issue_recs[pc] = rec
        if rec is not None and rec[0] == group.words_cache:
            if rec[1](group, cycle):
                stages[2] = None
                stages[3] = group
                acc[ACC_ISSUED] += 1
                if rec[2]:
                    acc[ACC_DUAL] += 1
                acc[ACC_IFAST] += 1
                return 1
            return 0
        acc[ACC_SHAPE] += 1
        if ref_sources_ready(group, cycle):
            stages[2] = None
            ref_issue(group, cycle)
            stages[3] = group
            acc[ACC_IREF] += 1
            return 3
        return 2

    def me_cold(group, cycle):
        wc = group.words_cache
        fn = me_shapes.get(wc, _MISS)
        if fn is _MISS:
            fn = me_shapes[wc] = _make_init_me(
                [fi.instr for fi in group.instrs], core)
        if fn is None:
            # _initiate_me for a group with no loads or stores (its
            # per-instruction loop does nothing).
            group.me_initiated = True
            group.me_ready_cycle = cycle + 1
            group.me_requests = []
            return 0
        if fn(group, cycle):
            return 0
        acc[ACC_MEM] += 1
        initiate_me(group, cycle)
        return 1

    def retire_cold(group):
        wc = group.words_cache
        fn = retire_shapes.get(wc)
        if fn is None:
            fn = retire_shapes[wc] = _make_retire(
                [fi.instr for fi in group.instrs], core, acc, writes)
        return fn

    def flush(cycles, hold, dmem, ifwait, issued, dual, chain, ev,
              acc=acc, stats=stats, estats=estats, reasons=reasons):
        stats.cycles += cycles
        stats.hold_cycles += hold
        stats.dmem_wait_cycles += dmem
        stats.ifetch_miss_cycles += ifwait + acc[ACC_IFMISS]
        stats.fetch_groups += acc[ACC_FETCH]
        stats.decode_cache_hits += acc[ACC_DECHIT]
        stats.decode_cache_misses += acc[ACC_DECMISS]
        stats.committed += acc[ACC_COMMIT]
        stats.committed_loads += acc[ACC_LOADS]
        stats.committed_stores += acc[ACC_STORES]
        stats.committed_branches += acc[ACC_BRANCH]
        stats.committed_muldiv += acc[ACC_MULDIV]
        stats.issued_groups += issued + acc[ACC_ISSUED]
        stats.dual_issued_groups += dual + acc[ACC_DUAL]
        estats.deopts += ev
        estats.issue_fast += issued + acc[ACC_IFAST]
        estats.issue_ref += acc[ACC_IREF]
        estats.chained_fetches += chain
        plan_d = acc[ACC_PLAN]
        page_d = acc[ACC_PAGE]
        shape_d = acc[ACC_SHAPE]
        mem_d = acc[ACC_MEM]
        guard_d = acc[ACC_GUARD]
        estats.delegations += plan_d + page_d + shape_d + mem_d
        if plan_d:
            reasons["plan_miss"] = reasons.get("plan_miss", 0) + plan_d
        if page_d:
            reasons["page_version"] = (reasons.get("page_version", 0)
                                       + page_d)
        if shape_d:
            reasons["issue_shape"] = (reasons.get("issue_shape", 0)
                                      + shape_d)
        if mem_d:
            reasons["mem_stage"] = reasons.get("mem_stage", 0) + mem_d
        if guard_d:
            reasons["guard_fail"] = (reasons.get("guard_fail", 0)
                                     + guard_d)
        acc[:] = _AZEROS

    def teardown():
        # Link cells and nodes reference each other along every loop
        # of the superblock graph; dead-linking the cells and emptying
        # the registries lets refcounting free a dropped engine.
        for cells in linked.values():
            for cell in cells:
                cell[0] = _DEAD_LINK
        for recs in guard_pending.values():
            for rec in recs:
                rec[1][0] = _DEAD_LINK
        for registry in (nodes, pending, guard_pending, linked, rebuilds,
                         branch_meta, issue_recs, me_shapes,
                         retire_shapes):
            registry.clear()
        fbox[0] = None

    return (core, stages, acc, sb, sb.occupancy_view(), sb.stats,
            sb.bus.request_store, sb.master, reads, writes, idle_reads,
            idle_writes, ready, dfill, ifill, initiate_me, retire_cold,
            me_cold, issue_cold, fetch_cold, guard_cold, page_cold,
            fbox, flush), teardown


# -- generated two-core span loop --------------------------------------
#
# The per-core cycle body below is a transliteration of Core.step with
# the same stage order (WB, XC, ME, EX, RA, DE, FE, fetch) and the same
# advance/hold semantics; both cores' bodies are merged into ONE
# compiled function so per-cycle costs (closure calls, default-argument
# copies, acc subscripts) collapse into local variables.  Tokens: `_N`
# is the core suffix, `AMEM` the ACC_MEM slot index.

_CORE_ARGS = ("core", "stages", "acc", "sb", "sbq", "sbst",
              "req_store", "master", "reads", "writes", "idle_reads",
              "idle_writes", "ready", "dfill", "ifill", "initiate_me",
              "retire_cold", "me_cold", "issue_cold", "fetch_cold",
              "guard_cold", "page_cold", "fbox", "flush")

_FIN = ("(core_N.halted and stages_N[0] is None and stages_N[1] is None"
        " and stages_N[2] is None and stages_N[3] is None"
        " and stages_N[4] is None and stages_N[5] is None"
        " and stages_N[6] is None and not sb_N._entries"
        " and sb_N._inflight is None)")

_CORE_BODY = """\
core_N.commits_this_cycle = 0
cw_N = []
core_N.committed_words = cw_N
reads_N[:] = idle_reads_N
writes_N[:] = idle_writes_N
ifl = sb_N._inflight
if ifl is not None:
    if ifl.granted and cycle >= ifl.complete_cycle:
        if sbq_N:
            sbst_N.transactions += 1
            sb_N._inflight = req_store_N(
                master_N, sbq_N.pop(0).line_address, cycle)
        else:
            sb_N._inflight = None
elif sbq_N:
    sbst_N.transactions += 1
    sb_N._inflight = req_store_N(master_N,
                                 sbq_N.pop(0).line_address, cycle)
adv_N = False
ev_N = 0
g = stages_N[6]
if g is not None:
    fn = g.retire_fn
    if fn is None:
        fn = retire_cold_N(g)
    fn(g, cw_N)
    stages_N[6] = None
    adv_N = True
g = stages_N[5]
if g is not None and stages_N[6] is None:
    stages_N[6] = g
    stages_N[5] = None
    adv_N = True
g = stages_N[4]
if g is not None:
    if not g.me_initiated:
        fn = g.me_fn
        if fn is None or fn is False:
            ev_N |= me_cold_N(g, cycle)
        elif not fn(g, cycle):
            acc_N[AMEM] += 1
            ev_N = 1
            initiate_me_N(g, cycle)
    elif g.me_ready_cycle is None:
        reqs = g.me_requests
        if reqs:
            done = True
            for req, _f in reqs:
                if not (req.granted and cycle >= req.complete_cycle):
                    done = False
                    break
            if done:
                for req, fetched in reqs:
                    dfill_N(req.address)
                    dest = fetched.instr._destination
                    if dest:
                        ready_N[dest] = cycle + 1
                g.me_requests = []
                g.me_ready_cycle = cycle + 1
    rdy = g.me_ready_cycle
    if rdy is None or cycle < rdy:
        c_dmem_N += 1
    elif stages_N[5] is None:
        stages_N[5] = g
        stages_N[4] = None
        adv_N = True
g = stages_N[3]
if g is not None and cycle >= g.ex_done_cycle and stages_N[4] is None:
    stages_N[4] = g
    stages_N[3] = None
    fn = g.me_fn
    if fn is False:
        g.me_initiated = True
        g.me_ready_cycle = cycle + 1
        g.me_requests = []
    elif fn is None:
        ev_N |= me_cold_N(g, cycle)
    elif not fn(g, cycle):
        acc_N[AMEM] += 1
        ev_N = 1
        initiate_me_N(g, cycle)
    adv_N = True
g = stages_N[2]
if g is not None and stages_N[3] is None:
    fn = g.issue_fn
    if fn is not None:
        r = fn(g, cycle)
        if r:
            stages_N[2] = None
            stages_N[3] = g
            c_issued_N += 1
            if r == 2:
                c_dual_N += 1
            adv_N = True
    else:
        r = issue_cold_N(g, cycle)
        if r == 1:
            adv_N = True
        elif r == 3:
            adv_N = True
            ev_N = 1
        elif r == 2:
            ev_N = 1
g = stages_N[1]
if g is not None and stages_N[2] is None:
    stages_N[2] = g
    stages_N[1] = None
    adv_N = True
g = stages_N[0]
if g is not None and stages_N[1] is None:
    stages_N[1] = g
    stages_N[0] = None
    adv_N = True
if stages_N[0] is None and core_N.fetch_enabled \\
        and not core_N._jalr_block:
    req = core_N._ifetch_req
    if req is not None:
        if req.granted and cycle >= req.complete_cycle:
            ifill_N(req.address)
            core_N._ifetch_req = None
            req = None
        else:
            c_ifwait_N += 1
    if req is None:
        pc = core_N.fetch_pc
        node = fcur_N
        if node is not None and node[0] == pc:
            f = node[1]
            if f is not None:
                r = f(cycle)
                if r.__class__ is _tup:
                    fcur_N = r
                    c_chain_N += 1
                    adv_N = True
                elif r == 2:
                    r = page_cold_N(pc, cycle)
                    fcur_N = fbox_N[0]
                    if r & 1:
                        adv_N = True
                    if r & 2:
                        ev_N = 1
            else:
                r = guard_cold_N(pc, cycle)
                fcur_N = fbox_N[0]
                if r & 1:
                    adv_N = True
                if r & 2:
                    ev_N = 1
        else:
            r = fetch_cold_N(pc, cycle)
            fcur_N = fbox_N[0]
            if r & 1:
                adv_N = True
            if r & 2:
                ev_N = 1
if adv_N:
    core_N.hold = False
else:
    core_N.hold = True
    c_hold_N += 1
c_cycles_N += 1
c_ev_N += ev_N
"""


#: Monitor bindings the span signature always carries (unused slots are
#: passed as None in the "call"/"none" observe modes).
_MON_ARGS = ("record", "rows_0", "hashes_0", "ds_0", "is_0", "evict_0",
             "rows_1", "hashes_1", "ds_1", "is_1", "evict_1",
             "diff_unit", "diff_stats", "mstats", "monitor", "mx",
             "hist_data", "hist_instr", "hist_div", "hist_stag")

# DiversityMonitor.observe's per-core sampling (DS row push + rolling
# digest, IS stage-words digest), inlined with the exact formulas from
# repro.core.signatures on the same deques.  Tokens: _N core suffix,
# MODL/BASEL the digest constants.
_OBS_CORE = """\
if not core_N.hold:
    row = _tup(reads_N)
    h = _hash(row) % MODL
    evicted = hashes_N[0]
    rows_N.append(row)
    hashes_N.append(h)
    ds_N._digest = ((ds_N._digest - evicted * evict_N)
                    * BASEL + h) % MODL
    g0 = stages_N[0]; g1 = stages_N[1]; g2 = stages_N[2]
    g3 = stages_N[3]; g4 = stages_N[4]; g5 = stages_N[5]
    g6 = stages_N[6]
    words = (
        g0.words_cache if g0 is not None else None,
        g1.words_cache if g1 is not None else None,
        g2.words_cache if g2 is not None else None,
        g3.words_cache if g3 is not None else None,
        g4.words_cache if g4 is not None else None,
        g5.words_cache if g5 is not None else None,
        g6.words_cache if g6 is not None else None,
    )
    is_N._stage_words = words
    is_N._digest = _hash(words)
"""


def _obs_tick_lines(has_history):
    """Monitor._tick + POLLING run-length accounting over span locals.

    Transliteration of the deferred accounting the fast tier used to
    keep in closure cells: every tracker is a plain local here, seeded
    at span entry and written back at span exit.
    """
    hist = has_history
    w = ["o_diff += core_0.commits_this_cycle"
         " - core_1.commits_this_cycle",
         "o_sampled += 1",
         "if o_diff == 0:",
         "    o_zs += 1",
         "    run_zs += 1",
         "    if run_zs > long_zs:",
         "        long_zs = run_zs",
         "else:",
         "    if o_diff < o_dmin:",
         "        o_dmin = o_diff",
         "    elif o_diff > o_dmax:",
         "        o_dmax = o_diff",
         "    if run_zs:"]
    if hist:
        w.append("        hist_stag._close_run_at(run_zs)")
    w += ["        run_zs = 0",
          "no_data = ds_0._digest == ds_1._digest",
          "no_instr = is_0._digest == is_1._digest",
          "if no_data:",
          "    o_nd += 1",
          "    run_nd += 1",
          "    if run_nd > long_nd:",
          "        long_nd = run_nd",
          "    if no_instr:",
          "        o_nv += 1",
          "        run_nv += 1",
          "        if run_nv > long_nv:",
          "            long_nv = run_nv",
          "    elif run_nv:"]
    if hist:
        w.append("        hist_div._close_run_at(run_nv)")
    w += ["        run_nv = 0",
          "else:",
          "    if run_nd:"]
    if hist:
        w.append("        hist_data._close_run_at(run_nd)")
    w += ["        run_nd = 0",
          "    if run_nv:"]
    if hist:
        w.append("        hist_div._close_run_at(run_nv)")
    w += ["        run_nv = 0",
          "if no_instr:",
          "    o_ni += 1",
          "    run_ni += 1",
          "    if run_ni > long_ni:",
          "        long_ni = run_ni",
          "elif run_ni:"]
    if hist:
        w.append("    hist_instr._close_run_at(run_ni)")
    w += ["    run_ni = 0",
          "o_last_cycle = cycle",
          "o_last_nd = no_data",
          "o_last_ni = no_instr"]
    return w


def _fin(n):
    return _FIN.replace("_N", "_%d" % n)


def _build_span_source(mode, has_record, has_history, has_mx,
                       num_cores=2, watched=(0, 1)):
    """Span source for one observe mode.

    ``mode`` is ``"inline"`` (POLLING monitor accounting generated into
    the loop), ``"call"`` (live-reporting monitor: call the ``observe``
    closure every sampled cycle), ``"none"`` (monitor disabled), or
    ``"multi"`` (scheme-shaped SoC: ``observe(cycle, gate, fins)`` is
    called *every* cycle and handles monitor gating and scheme taps
    itself — see ``_make_multi_observe``).

    ``num_cores`` cores are stepped; the span terminates when every
    core in ``watched`` has finished (the other modes keep the
    historical two-core, watch-both shape).
    """
    args = []
    for n in range(num_cores):
        args.extend("%s_%d" % (name, n) for name in _CORE_ARGS)
    args.extend(["bus", "bus_step", "observe"])
    args.extend(_MON_ARGS)
    rebind = ", ".join("%s=%s" % (a, a) for a in args)
    lines = [
        "def _make_span(%s):" % ", ".join(args),
        "    def run_span(cycle, stop, gate, %s,"
        " _tup=tuple, _hash=hash):" % rebind,
    ]
    for n in range(num_cores):
        for c in ("cycles", "hold", "dmem", "ifwait", "issued",
                  "dual", "chain", "ev"):
            lines.append("        c_%s_%d = 0" % (c, n))
        lines.append("        fcur_%d = fbox_%d[0]" % (n, n))
        lines.append("        fin_%d = %s" % (n, _fin(n)))
    if mode == "inline":
        # Delta counters start at zero; absolute trackers seed from
        # the live monitor objects (every span exit writes them back,
        # so span entry always sees reconciled state).
        lines += ["        o_sampled = o_nd = o_ni = o_nv = o_zs = 0",
                  "        o_diff = diff_unit.diff",
                  "        o_dmin = diff_stats.min_diff",
                  "        o_dmax = diff_stats.max_diff",
                  "        o_last_cycle = 0",
                  "        o_last_nd = o_last_ni = False"]
        if has_history:
            lines += ["        run_nd = hist_data._run",
                      "        long_nd = hist_data.longest",
                      "        run_ni = hist_instr._run",
                      "        long_ni = hist_instr.longest",
                      "        run_nv = hist_div._run",
                      "        long_nv = hist_div.longest",
                      "        run_zs = hist_stag._run",
                      "        long_zs = hist_stag.longest"]
        else:
            lines += ["        run_nd = long_nd = run_ni = long_ni = 0",
                      "        run_nv = long_nv = run_zs = long_zs = 0"]
    lines.append("        finished = False")
    lines.append("        while cycle < stop:")
    lines.append("            if %s:"
                 % " and ".join("fin_%d" % i for i in watched))
    lines.append("                finished = True")
    lines.append("                break")
    body = _CORE_BODY.replace("AMEM", str(ACC_MEM))
    for n in range(num_cores):
        lines.append("            if fin_%d:" % n)
        lines.append("                core_%d.commits_this_cycle = 0" % n)
        lines.append("            else:")
        for line in body.replace("_N", "_%d" % n).splitlines():
            lines.append("                " + line if line else "")
    lines.append("            if bus._inflight is not None or bus._queue:")
    lines.append("                bus_step(cycle)")
    for n in range(num_cores):
        lines.append("            if not fin_%d:" % n)
        lines.append("                fin_%d = %s" % (n, _fin(n)))
    # The monitor gate re-evaluates finish state after the cores
    # stepped, exactly like MPSoC.step does.
    if mode == "multi":
        # Scheme taps are not gated on finish, so the closure runs
        # every cycle and applies the monitor gate per pair itself.
        lines.append("            observe(cycle, gate, (%s))"
                     % ", ".join("fin_%d" % n
                                 for n in range(num_cores)))
    elif mode != "none":
        lines.append("            if not gate or not (fin_0 or fin_1):")
        if mode == "call":
            lines.append("                observe(cycle)")
        else:
            if has_record:
                lines.append("                record(cycle, core_0,"
                             " core_1)")
            obs = _OBS_CORE.replace("MODL", str(_DIGEST_MOD)) \
                           .replace("BASEL", str(_DIGEST_BASE))
            for n in (0, 1):
                for line in obs.replace("_N", "_%d" % n).splitlines():
                    lines.append("                " + line)
            for line in _obs_tick_lines(has_history):
                lines.append("                " + line)
    lines.append("            cycle += 1")
    for n in range(num_cores):
        lines.append("        fbox_%d[0] = fcur_%d" % (n, n))
        lines.append("        flush_%d(c_cycles_%d, c_hold_%d,"
                     " c_dmem_%d, c_ifwait_%d, c_issued_%d, c_dual_%d,"
                     " c_chain_%d, c_ev_%d)" % ((n,) * 9))
    if mode == "inline":
        lines += ["        if o_sampled:",
                  "            diff_unit.diff = o_diff",
                  "            diff_stats.sampled_cycles += o_sampled",
                  "            diff_stats.zero_staggering_cycles"
                  " += o_zs",
                  "            diff_stats.min_diff = o_dmin",
                  "            diff_stats.max_diff = o_dmax",
                  "            mstats.sampled_cycles += o_sampled",
                  "            mstats.no_data_diversity_cycles += o_nd",
                  "            mstats.no_instruction_diversity_cycles"
                  " += o_ni",
                  "            mstats.no_diversity_cycles += o_nv"]
        if has_mx:
            lines += ["            mx[0].inc(o_sampled)",
                      "            mx[1].inc(o_nd)",
                      "            mx[2].inc(o_ni)",
                      "            mx[3].inc(o_nv)"]
        if has_history:
            lines += ["            hist_data._run = run_nd",
                      "            hist_data.longest = long_nd",
                      "            hist_data.total_cycles += o_nd",
                      "            hist_instr._run = run_ni",
                      "            hist_instr.longest = long_ni",
                      "            hist_instr.total_cycles += o_ni",
                      "            hist_div._run = run_nv",
                      "            hist_div.longest = long_nv",
                      "            hist_div.total_cycles += o_nv",
                      "            hist_stag._run = run_zs",
                      "            hist_stag.longest = long_zs",
                      "            hist_stag.total_cycles += o_zs"]
        lines += ["            monitor._have_report = True",
                  "            monitor._last_cycle = o_last_cycle",
                  "            monitor._last_data_div = not o_last_nd",
                  "            monitor._last_instr_div = not o_last_ni",
                  "            monitor._last_stagger = o_diff"]
    lines.append("        return cycle, finished")
    lines.append("    return run_span")
    return "\n".join(lines)


#: (mode, has_record, has_history, has_mx, num_cores, watched)
#: -> compiled _make_span.
_SPAN_CACHE = {}


def _span_maker(mode, has_record=False, has_history=False,
                has_mx=False, num_cores=2, watched=(0, 1)):
    key = (mode, has_record, has_history, has_mx, num_cores,
           tuple(watched))
    make = _SPAN_CACHE.get(key)
    if make is None:
        namespace = {}
        exec(compile(_build_span_source(*key), "<repro.engine span>",
                     "exec"), namespace)
        make = _SPAN_CACHE[key] = namespace["_make_span"]
    return make


def _noop():
    return None


def _make_observe(monitor, core0, core1):
    """Inlined DiversityMonitor.observe for INTERRUPT_* reporting.

    Returns the live ``observe`` closure: it mirrors observe + _tick
    statement for statement every cycle, because interrupt decisions
    read the running no-diversity count mid-run.  POLLING monitors do
    not come through here at all — their accounting is generated
    straight into the span loop (see ``_build_span_source``), where
    every tracker is a plain local seeded at span entry and written
    back at span exit, i.e. before any code outside the runner
    (snapshots, checkpoint callbacks, per-cycle fault hooks driving
    one-cycle spans) can read monitor state.

    The signature units' rolling digests are updated with the exact
    formulas from :mod:`repro.core.signatures` on the same deques, so
    snapshots and DEBUG re-verification see identical structures.
    """

    ds0, ds1 = monitor.ds_units
    is0, is1 = monitor.is_units
    rows0, hashes0 = ds0._rows, ds0._row_hashes
    rows1, hashes1 = ds1._rows, ds1._row_hashes
    evict0 = ds0._evict_weight
    evict1 = ds1._evict_weight
    reads0 = core0.regfile.read_samples
    reads1 = core1.regfile.read_samples
    stages0 = core0.stages
    stages1 = core1.stages
    diff_unit = monitor.instruction_diff
    diff_stats = diff_unit.stats
    mstats = monitor.stats
    history = monitor.history
    if history is not None:
        hist_data = history._no_data
        hist_instr = history._no_instr
        hist_div = history._no_div
        hist_stag = history._zero_stag
    polling = monitor.mode is ReportingMode.POLLING
    report_loss = monitor._report_loss
    MOD = _DIGEST_MOD
    BASE = _DIGEST_BASE

    # Capture/metrics attachment is pre-run (or via a checkpoint
    # callback, after which FastRunner._rebuild recreates this closure),
    # so bind their presence statically instead of testing every cycle.
    capture = monitor._capture
    record = capture.record if capture is not None else None
    mx = monitor._mx

    def observe(cycle, record=record, core0=core0, core1=core1,
                reads0=reads0, reads1=reads1, rows0=rows0, rows1=rows1,
                hashes0=hashes0, hashes1=hashes1, ds0=ds0, ds1=ds1,
                is0=is0, is1=is1, evict0=evict0, evict1=evict1,
                stages0=stages0, stages1=stages1, MOD=MOD, BASE=BASE,
                diff_unit=diff_unit, diff_stats=diff_stats,
                mstats=mstats, history=history, polling=polling,
                report_loss=report_loss, monitor=monitor, mx=mx,
                hash=hash, tuple=tuple):
        if record is not None:
            record(cycle, core0, core1)
        if not core0.hold:
            row = tuple(reads0)
            h = hash(row) % MOD
            evicted = hashes0[0]
            rows0.append(row)
            hashes0.append(h)
            ds0._digest = ((ds0._digest - evicted * evict0)
                           * BASE + h) % MOD
            g0 = stages0[0]; g1 = stages0[1]; g2 = stages0[2]
            g3 = stages0[3]; g4 = stages0[4]; g5 = stages0[5]
            g6 = stages0[6]
            words = (
                g0.words_cache if g0 is not None else None,
                g1.words_cache if g1 is not None else None,
                g2.words_cache if g2 is not None else None,
                g3.words_cache if g3 is not None else None,
                g4.words_cache if g4 is not None else None,
                g5.words_cache if g5 is not None else None,
                g6.words_cache if g6 is not None else None,
            )
            is0._stage_words = words
            is0._digest = hash(words)
        if not core1.hold:
            row = tuple(reads1)
            h = hash(row) % MOD
            evicted = hashes1[0]
            rows1.append(row)
            hashes1.append(h)
            ds1._digest = ((ds1._digest - evicted * evict1)
                           * BASE + h) % MOD
            g0 = stages1[0]; g1 = stages1[1]; g2 = stages1[2]
            g3 = stages1[3]; g4 = stages1[4]; g5 = stages1[5]
            g6 = stages1[6]
            words = (
                g0.words_cache if g0 is not None else None,
                g1.words_cache if g1 is not None else None,
                g2.words_cache if g2 is not None else None,
                g3.words_cache if g3 is not None else None,
                g4.words_cache if g4 is not None else None,
                g5.words_cache if g5 is not None else None,
                g6.words_cache if g6 is not None else None,
            )
            is1._stage_words = words
            is1._digest = hash(words)
        # _tick, inlined (same statement order).
        diff = diff_unit.diff + core0.commits_this_cycle \
            - core1.commits_this_cycle
        diff_unit.diff = diff
        diff_stats.sampled_cycles += 1
        if diff == 0:
            diff_stats.zero_staggering_cycles += 1
        if diff < diff_stats.min_diff:
            diff_stats.min_diff = diff
        elif diff > diff_stats.max_diff:
            diff_stats.max_diff = diff
        mstats.sampled_cycles += 1
        no_data = ds0._digest == ds1._digest
        no_instr = is0._digest == is1._digest
        no_div = no_data and no_instr
        if no_data:
            mstats.no_data_diversity_cycles += 1
        if no_instr:
            mstats.no_instruction_diversity_cycles += 1
        if no_div:
            mstats.no_diversity_cycles += 1
            if not polling:
                report_loss(cycle)
        if mx is not None:
            mx[0].inc()
            if no_data:
                mx[1].inc()
            if no_instr:
                mx[2].inc()
            if no_div:
                mx[3].inc()
        if history is not None:
            if no_data:
                hist_data._run += 1
                hist_data.total_cycles += 1
                if hist_data._run > hist_data.longest:
                    hist_data.longest = hist_data._run
            elif hist_data._run:
                hist_data._close_run()
            if no_instr:
                hist_instr._run += 1
                hist_instr.total_cycles += 1
                if hist_instr._run > hist_instr.longest:
                    hist_instr.longest = hist_instr._run
            elif hist_instr._run:
                hist_instr._close_run()
            if no_div:
                hist_div._run += 1
                hist_div.total_cycles += 1
                if hist_div._run > hist_div.longest:
                    hist_div.longest = hist_div._run
            elif hist_div._run:
                hist_div._close_run()
            if diff == 0:
                hist_stag._run += 1
                hist_stag.total_cycles += 1
                if hist_stag._run > hist_stag.longest:
                    hist_stag.longest = hist_stag._run
            elif hist_stag._run:
                hist_stag._close_run()
        monitor._have_report = True
        monitor._last_cycle = cycle
        monitor._last_data_div = not no_data
        monitor._last_instr_div = not no_instr
        monitor._last_stagger = diff

    return observe


def _classic_shape(soc) -> bool:
    """True for the historical fast-tier shape: two cores, one (0, 1)
    monitored pair, no scheme taps, default watched set.

    The classic shape keeps the specialized ``none``/``inline``/``call``
    observe modes (whose generated source is byte-identical to the
    pre-scheme fast tier); any other topology runs the ``"multi"`` span,
    which observes through the reference monitor path.
    """
    return (len(soc.cores) == 2
            and soc.monitor_pairs == ((0, 1),)
            and not soc._scheme_taps
            and (soc.watched_cores is None
                 or tuple(soc.watched_cores) == (0, 1)))


def _make_multi_observe(soc):
    """Per-cycle observation for scheme-shaped SoCs.

    Mirrors the tail of :meth:`MPSoC.step` exactly: each monitored
    pair's observe is gated on the pair's finish state (the span passes
    its ``fin_*`` locals, which are the same expression as
    ``Core.finished``), then every scheme tap fires ungated.  Monitors
    go through the reference :meth:`DiversityMonitor.observe` — no
    inlining — so any monitor configuration is bit-identical by
    construction; scheme checkers read the same per-commit state the
    reference loop exposes (the span maintains ``commits_this_cycle``,
    ``committed_words`` and the write-port samples identically).
    """
    taps = tuple((monitor, pair[0], pair[1],
                  soc.cores[pair[0]], soc.cores[pair[1]])
                 for monitor, pair in zip(soc.monitors,
                                          soc.monitor_pairs))
    staps = tuple(soc._scheme_taps)

    def observe(cycle, gate, fins, taps=taps, staps=staps):
        for monitor, a, b, core_a, core_b in taps:
            if not gate or not (fins[a] or fins[b]):
                monitor.observe(cycle, core_a, core_b)
        for tap in staps:
            tap(cycle)

    return observe


class FastRunner:
    """Drives one :class:`~repro.soc.mpsoc.MPSoC` through the fast tier.

    Only valid for SoCs accepted by ``repro.engine._fast_supported``.
    The classic two-core monitored pair runs the specialized observe
    modes; scheme-shaped SoCs (N cores, multiple pairs, scheme taps)
    run the ``"multi"`` span.  The runner is rebuilt after any state
    restore — captured locals point into pre-restore lists.
    """

    def __init__(self, soc, plan, estats):
        self.soc = soc
        self.plan = plan
        self.estats = estats
        self._teardowns = []
        self._build()

    def _engine(self, core):
        args, teardown = _make_core_engine(core, self.plan, self.estats)
        self._teardowns.append(teardown)
        return args

    def _build(self):
        soc = self.soc
        if not _classic_shape(soc):
            self._build_multi()
            return
        b0 = self._engine(soc.cores[0])
        b1 = self._engine(soc.cores[1])
        monitor, core_a, core_b = soc._taps[0]
        observe = _noop
        mon_args = (None,) * len(_MON_ARGS)
        if not monitor.enabled:
            make = _span_maker("none")
        elif monitor.mode is ReportingMode.POLLING:
            # Capture/metrics/history attachment is pre-run (or via a
            # checkpoint callback, after which _rebuild re-specializes),
            # so their presence is baked into the generated source.
            capture = monitor._capture
            record = capture.record if capture is not None else None
            mx = monitor._mx
            history = monitor.history
            ds0, ds1 = monitor.ds_units
            is0, is1 = monitor.is_units
            if history is not None:
                hists = (history._no_data, history._no_instr,
                         history._no_div, history._zero_stag)
            else:
                hists = (None, None, None, None)
            mon_args = (record,
                        ds0._rows, ds0._row_hashes, ds0, is0,
                        ds0._evict_weight,
                        ds1._rows, ds1._row_hashes, ds1, is1,
                        ds1._evict_weight,
                        monitor.instruction_diff,
                        monitor.instruction_diff.stats,
                        monitor.stats, monitor, mx) + hists
            make = _span_maker("inline", record is not None,
                               history is not None, mx is not None)
        else:
            observe = _make_observe(monitor, core_a, core_b)
            make = _span_maker("call")
        self._span = make(*(b0 + b1
                            + (soc.bus, soc.bus.step, observe)
                            + mon_args))

    def _build_multi(self):
        """Span for scheme-shaped SoCs: N cores, reference observation."""
        soc = self.soc
        engines = ()
        for core in soc.cores:
            engines += self._engine(core)
        observe = _make_multi_observe(soc)
        make = _span_maker("multi", num_cores=len(soc.cores),
                           watched=soc._watched_indices())
        self._span = make(*(engines
                            + (soc.bus, soc.bus.step, observe)
                            + (None,) * len(_MON_ARGS)))

    def _rebuild(self):
        """Recreate closures after external state mutation (restores).

        A restore can also rewind page versions, so plan entries
        compiled against a version the memory no longer holds are
        dropped first (see :meth:`ProgramPlan.drop_stale`).
        """
        self.release()
        self.plan.drop_stale()
        self._build()

    def release(self):
        """Drop the current per-core engines; the runner must be
        rebuilt before its next span.

        Live groups may carry handlers bound to the dropped engines'
        deferred-counter and write-port lists; they are cleared so the
        groups re-dispatch through the next engine's shape maps.  The
        engines are unlinked so refcounting frees them (and, once the
        caller drops it, the SoC) instead of leaving cyclic garbage.
        """
        for core in self.soc.cores:
            for group in core.stages:
                if group is not None:
                    group.issue_fn = None
                    group.me_fn = None
                    group.retire_fn = None
        for teardown in self._teardowns:
            teardown()
        self._teardowns = []

    def run_span(self, stop: int) -> bool:
        """Step the platform until ``soc.cycle == stop`` or every
        watched core finishes.  Returns True when they all have.
        """
        soc = self.soc
        start = soc.cycle
        cycle, finished = self._span(start, stop,
                                     soc.gate_monitor_on_finish)
        soc.cycle = cycle
        self.estats.fast_cycles += cycle - start
        return finished

    def run(self, max_cycles: int = 2_000_000, checkpoint_every: int = 0,
            on_checkpoint=None) -> int:
        """Fast-tier equivalent of :meth:`MPSoC.run`.

        Checkpoint callbacks fire at exactly the same cycles: spans are
        chunked to the next cadence multiple, and a span that ends early
        (cores finished) cannot land on a multiple it did not reach.
        """
        soc = self.soc
        start = soc.cycle
        limit = start + max_cycles
        if checkpoint_every > 0 and on_checkpoint is not None:
            while soc.cycle < limit:
                stop = min(limit, (soc.cycle // checkpoint_every + 1)
                           * checkpoint_every)
                finished = self.run_span(stop)
                if soc.cycle % checkpoint_every == 0 \
                        and soc.cycle == stop:
                    on_checkpoint(soc)
                    # The callback may have restored other state into
                    # this SoC (fork/replay protocols); recapture.
                    self._rebuild()
                if finished:
                    break
        else:
            self.run_span(limit)
        for monitor in soc.monitors:
            monitor.finish()
        return soc.cycle - start
