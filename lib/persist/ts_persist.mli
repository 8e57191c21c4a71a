(** Persistent, content-addressed result store with resumable sweep
    journals.

    Scheduling a loop and simulating it to steady state is deterministic:
    the result is a pure function of the loop's DDG, the machine
    configuration, the address-plan seed and the trip/warmup counts. This
    store memoises those results on disk so regenerating an experiment
    table is a cache lookup per loop instead of a schedule search plus a
    few hundred thousand simulated cycles, and so a killed sweep resumes
    from its last completed loop instead of from scratch.

    Keys are caller-supplied digests (see {!digest_hex}); the store never
    interprets them. Values go through [Marshal], so they must be plain
    data (no closures) and are only readable by the binary that wrote
    them — both restrictions are fine for a cache, where the worst case
    of a mismatch is a recompute.

    Layout and visibility:

    - {b Append-only segments}: each handle that writes appends its
      entries to a segment file of its own, [<dir>/segments/*.seg],
      created on its first {!store}. Every record is framed with its key,
      its length and a digest of its payload, and is handed to the
      operating system unbuffered, under the handle's mutex, before
      {!store} returns. No entry is ever rewritten in place.
    - {b Index}: each handle keeps a key → record table in memory. It is
      built by {!open_store} from every segment present at that moment,
      scanned in creation order: for a key written through two handles
      the later-created segment's record wins, and within a segment the
      later record wins. Every {!store} through the handle updates it. A {!find} reads just
      that record's payload.
    - {b What other handles see}: a handle sees every entry flushed
      before its {!open_store}, plus its own writes. Entries another
      handle or process writes afterwards stay invisible to it until it
      is reopened; meanwhile it just misses and recomputes them.
    - {b Torn tails}: a crash or a failed append can leave a partial
      record, but only at a segment's end: a handle whose append fails
      closes that segment and starts a new one at its next write. The
      scan keeps every record before the tear.

    Robustness guarantees:

    - {b Corruption tolerance}: a truncated, corrupted or
      wrong-binary-version entry reads as [None] (and leaves the
      handle's index) — the caller recomputes; nothing ever escalates to
      an exception. Segments and journals in an older format are
      ignored.
    - {b Crash-safe journals}: sweep journals are append-only and flushed
      per record, with the same framing as segments; a journal with a
      truncated tail replays every record before the truncation point.
    - {b Write degradation}: a failed entry write (disk full, unwritable
      store) never aborts the computation — {!store} warns once, counts
      [persist.degraded], and the run continues uncached. A failed
      journal append likewise degrades the sweep to journal-less
      ([persist.journal.degraded]).

    Every I/O path is instrumented with {!Ts_resil.Fault} counter points
    ([persist.open], [persist.read], [persist.write] — kind [torn]
    supported — [persist.append], [journal.open], [journal.write]), so
    each degradation above is exercisable deterministically in tests.

    Hit/miss/store counters land on {!Ts_obs.Metrics.default} under
    [persist.*], with latency histograms for the open scan
    ([persist.open_ms]), reads and writes. All operations are
    domain-safe. *)

module Lru = Lru
(** The in-memory LRU front for this store (re-exported:
    [Ts_persist.Lru]). See {!Lru}. *)

type t
(** An open store rooted at a directory. *)

val open_store : dir:string -> t
(** Open (creating directories as needed) the store rooted at [dir] and
    index its segments. Raises [Sys_error] if the directory cannot be
    created. *)

val dir : t -> string

val default_dir : unit -> string
(** Where the CLI puts the store unless told otherwise:
    [$TSMS_CACHE_DIR], else [$XDG_CACHE_HOME/tsms], else
    [$HOME/.cache/tsms], else [_tsms_cache] in the working directory
    (warned once — resumes started elsewhere would miss it). The result
    is always an absolute path, so a [--resume] run finds the same cache
    and journal whatever directory it starts from. *)

val digest_hex : string -> string
(** Hex digest of an arbitrary (binary) string — the key constructor.
    Callers serialise whatever identifies a computation (loop structure,
    config, trip counts, a code-version stamp) and digest it. *)

val find : t -> key:string -> 'a option
(** Look the key up. [None] on absence or corruption (the unreadable
    record leaves this handle's index). The ['a] is whatever {!store} put
    there — callers keep key spaces for different result types disjoint
    by construction (a kind tag inside the digested string). *)

val store : t -> key:string -> 'a -> unit
(** Append the entry to this handle's segment and index it; the record
    is flushed before this returns. Concurrent stores of the same key
    through one handle are safe (the last append wins). Never raises: a
    write failure warns
    once, increments [persist.degraded] and leaves the run uncached for
    this entry — the cache must never take the computation down with
    it. *)

val memo : t option -> key:string -> (unit -> 'a) -> 'a
(** [memo (Some s) ~key f] is [find]-else-[f ()]-and-[store]; [memo None]
    is just [f ()] — callers thread an optional store through without
    branching. *)

(** {2 Sweep journals}

    A journal is an append-only log of per-item results for one sweep
    (one experiment driver run). Drivers record each item as it
    completes; a resumed run replays completed items and recomputes only
    the rest. The journal is deleted when the sweep {!Journal.finish}es,
    so a journal file on disk means an interrupted run. *)

module Journal : sig
  type j

  val load : t -> name:string -> fingerprint:string -> resume:bool -> j
  (** Open the journal [name]. With [resume:false], or when the on-disk
      journal was written with a different [fingerprint] (different
      config, limit or code version — its items would be stale), any
      existing log is discarded and the journal starts empty. A
      [resume:true] discard is never silent: the warning names the
      journal, both fingerprints and how many completed items are being
      thrown away, and [persist.journal.discarded] counts it. With
      [resume:true] and a matching fingerprint, previously recorded items
      become available to {!find}. *)

  val find : j -> id:string -> 'a option
  (** The recorded result of item [id], if the (possibly resumed) sweep
      already completed it. [None] on absence or a corrupt record. *)

  val record : j -> id:string -> 'a -> unit
  (** Append item [id]'s result and flush, so it survives a kill at any
      later point. Domain-safe. A write failure degrades the journal to
      journal-less (warned once, [persist.journal.degraded]); the sweep
      itself continues. *)

  val finish : j -> unit
  (** Close and delete the journal: the sweep completed, there is nothing
      to resume. *)
end
