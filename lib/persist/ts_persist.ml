(* On-disk layout:

     <dir>/version                 human-readable store format stamp
     <dir>/segments/<name>.seg     append-only result log, one per writing handle
     <dir>/journals/<name>.j

   Record framing, shared by segments and journals:

     r <id-length> <payload-length> <payload-digest-hex>\n<id><payload>\n

   A segment is the line "tss1\n" followed by records whose id is the
   entry key. A journal is "tsj2 <fingerprint-hex>\n" followed by records
   whose id is the item id. Segment names start with the creation time in
   fixed-width hex, so name order is creation order.

   The magics double as the format version: bumping them makes every old
   segment or journal unreadable, which the readers below treat as a
   miss. Stores written in the older one-file-per-entry layout are
   ignored the same way. *)

module Lru = Lru

let m_hits = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.hits"
let m_misses = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.misses"
let m_stores = Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.stores"

let m_replayed =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.journal.replayed"

let m_degraded =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded"

let m_j_degraded =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.journal.degraded"

let m_j_discarded =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.journal.discarded"

(* I/O latency distributions: [open_store] (the segment scan), [find]
   (index lookup+read+digest+unmarshal), [store_exn]
   (marshal+digest+append) and journal-record wall time. *)
let m_open_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.open_ms"

let m_read_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.read_ms"

let m_write_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.write_ms"

let m_j_write_ms =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "persist.journal.write_ms"

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.0

(* ---- record framing ---- *)

let frame ~id ~digest payload =
  String.concat ""
    [
      Printf.sprintf "r %d %d %s\n" (String.length id) (String.length payload)
        (Digest.to_hex digest);
      id;
      payload;
      "\n";
    ]

(* A non-negative decimal ending at the first [stop] char: [(n, pos after
   stop)]. At most 15 digits, so a garbled length cannot overflow. *)
let parse_nat s pos stop =
  let n = String.length s in
  let rec go i acc =
    if i >= n || i - pos > 15 then None
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc * 10) + Char.code c - 48)
      | c when c = stop && i > pos -> Some (acc, i + 1)
      | _ -> None
  in
  go pos 0

(* Calls [f ~id ~off ~len ~digest] for each well-framed record from
   [pos] on, where the payload is [String.sub s off len]. A crash
   mid-append leaves a truncated tail, which just ends the walk early;
   payload digests are the caller's to check. *)
let iter_records s pos f =
  let n = String.length s in
  let rec go pos =
    if pos + 2 <= n && s.[pos] = 'r' && s.[pos + 1] = ' ' then
      match parse_nat s (pos + 2) ' ' with
      | None -> ()
      | Some (idl, p) -> (
          match parse_nat s p ' ' with
          | None -> ()
          | Some (pl, p) when p + 33 <= n && s.[p + 32] = '\n' -> (
              match Digest.from_hex (String.sub s p 32) with
              | exception Invalid_argument _ -> ()
              | digest ->
                  let body = p + 33 in
                  let stop = body + idl + pl in
                  if stop < n && s.[stop] = '\n' then begin
                    f ~id:(String.sub s body idl) ~off:(body + idl) ~len:pl
                      ~digest;
                    go (stop + 1)
                  end)
          | Some _ -> ())
  in
  go pos

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- the store ---- *)

(* Where a key's latest record lives. [seg] is shared by every entry of
   one segment. *)
type entry = { seg : string; off : int; len : int; digest : Digest.t }

type t = {
  root : string;
  lock : Mutex.t; (* guards [index] and [out] *)
  index : (string, entry) Hashtbl.t;
  (* The segment this handle appends to, created on its first write. *)
  mutable out : (string * Unix.file_descr) option;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    (try Sys.mkdir path 0o755
     with Sys_error _ when Sys.file_exists path -> ())
  end

let segment_magic = "tss1\n"
let journal_magic = "tsj2"
let stamp = "tsms result store, segment format tss1, journal tsj2\n"
let segments_dir root = Filename.concat root "segments"

let open_store ~dir =
  Ts_resil.Fault.guard "persist.open";
  let t0 = Unix.gettimeofday () in
  mkdir_p (segments_dir dir);
  mkdir_p (Filename.concat dir "journals");
  let vfile = Filename.concat dir "version" in
  if (try read_file vfile with Sys_error _ -> "") <> stamp then begin
    let oc = open_out vfile in
    output_string oc stamp;
    close_out oc
  end;
  (* Later records win: segments in creation order, records in file
     order. An unreadable segment, or one in another format, adds
     nothing. *)
  let index = Hashtbl.create 1024 in
  let names = Sys.readdir (segments_dir dir) in
  Array.sort compare names;
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".seg" then
        let seg = Filename.concat (segments_dir dir) name in
        match read_file seg with
        | s when String.starts_with ~prefix:segment_magic s ->
            iter_records s (String.length segment_magic)
              (fun ~id ~off ~len ~digest ->
                Hashtbl.replace index id { seg; off; len; digest })
        | _ | (exception Sys_error _) -> ())
    names;
  Ts_obs.Metrics.observe m_open_ms (ms_since t0);
  { root = dir; lock = Mutex.create (); index; out = None }

let dir t = t.root

(* Always absolute: a --resume run started from a different cwd must find
   the same cache and journal the killed run wrote. *)
let absolutize d =
  if Filename.is_relative d then Filename.concat (Sys.getcwd ()) d else d

let default_dir () =
  match Sys.getenv_opt "TSMS_CACHE_DIR" with
  | Some d when d <> "" -> absolutize d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> absolutize (Filename.concat d "tsms")
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              absolutize (Filename.concat (Filename.concat h ".cache") "tsms")
          | _ ->
              let d = absolutize "_tsms_cache" in
              Ts_resil.Warn.once ~key:"persist.default_dir"
                (Printf.sprintf
                   "no $HOME or $XDG_CACHE_HOME; the result cache falls back \
                    to %s (set $TSMS_CACHE_DIR to pin it)"
                   d);
              d))

let digest_hex s = Digest.to_hex (Digest.string s)

let read_payload (e : entry) =
  Ts_resil.Fault.guard "persist.read";
  let fd = Unix.openfile e.seg [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd e.off Unix.SEEK_SET);
      let b = Bytes.create e.len in
      let rec fill pos =
        if pos < e.len then
          match Unix.read fd b pos (e.len - pos) with
          | 0 -> raise End_of_file
          | k -> fill (pos + k)
      in
      fill 0;
      Bytes.unsafe_to_string b)

(* Every failure mode — unknown key, unreadable segment, digest mismatch,
   truncated marshal — is a miss; a cache must never take the computation
   down with it. A record that fails leaves the index, so the next lookup
   misses without touching the disk and the next [store] replaces it. *)
let find (type a) t ~key : a option =
  Ts_obs.Prof.span "persist.read" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let e = locked t (fun () -> Hashtbl.find_opt t.index key) in
  let parsed =
    match e with
    | None -> None
    | Some e -> (
        try
          let payload = read_payload e in
          if Digest.equal (Digest.string payload) e.digest then
            Some (Marshal.from_string payload 0 : a)
          else None
        with _ -> None)
  in
  (match (parsed, e) with
  | Some _, _ -> Ts_obs.Metrics.incr m_hits
  | None, None -> Ts_obs.Metrics.incr m_misses
  | None, Some e ->
      Ts_obs.Metrics.incr m_misses;
      locked t (fun () ->
          (* Unless a concurrent [store] already replaced it. *)
          match Hashtbl.find_opt t.index key with
          | Some e' when e' == e -> Hashtbl.remove t.index key
          | _ -> ()));
  Ts_obs.Metrics.observe m_read_ms (ms_since t0);
  parsed

(* Segment names sort in creation order: microseconds since the epoch,
   then pid and a per-process sequence number to keep simultaneous
   creations apart (O_EXCL catches the rest). *)
let seg_seq = Atomic.make 0

let rec create_segment root =
  let name =
    Printf.sprintf "%014x-%08x-%06x.seg"
      (int_of_float (Unix.gettimeofday () *. 1e6))
      (Unix.getpid ())
      (Atomic.fetch_and_add seg_seq 1)
  in
  let path = Filename.concat (segments_dir root) name in
  match
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create_segment root
  | fd -> (
      match Unix.write_substring fd segment_magic 0 (String.length segment_magic)
      with
      | _ -> (path, fd)
      | exception e ->
          Unix.close fd;
          raise e)

(* A failed append may have left a partial record behind: this handle
   stops appending there, so the partial record stays the segment's
   tail, and the next write starts a new segment. *)
let abandon_segment t =
  match t.out with
  | None -> ()
  | Some (_, fd) ->
      t.out <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())

let store_exn t ~key v =
  Ts_obs.Prof.span "persist.write" @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let payload = Marshal.to_string v [] in
  let digest = Digest.string payload in
  (* A torn fault simulates a crash or short write that still left the
     record's bytes behind: its second half is garbled, so it fails its
     digest on the next [find], which must treat it as a miss. The
     declared length is kept, so later records stay framed. *)
  let torn =
    match Ts_resil.Fault.check "persist.write" with
    | None -> false
    | Some Ts_resil.Fault.Torn -> true
    | Some (Ts_resil.Fault.Slow ms) ->
        Ts_resil.Fault.sleep (float_of_int ms /. 1000.0);
        false
    | Some Ts_resil.Fault.Exn -> raise (Ts_resil.Fault.Injected "persist.write")
  in
  let payload =
    if not torn then payload
    else
      String.mapi
        (fun i c ->
          if i < String.length payload / 2 then c
          else Char.chr (Char.code c lxor 0xff))
        payload
  in
  let rec_ = frame ~id:key ~digest payload in
  locked t (fun () ->
      let seg, fd =
        match t.out with
        | Some s -> s
        | None ->
            let s = create_segment t.root in
            t.out <- Some s;
            s
      in
      (* O_APPEND leaves the file offset at the end of this record. *)
      let end_ =
        try
          Ts_resil.Fault.guard "persist.append";
          ignore (Unix.write_substring fd rec_ 0 (String.length rec_));
          Unix.lseek fd 0 Unix.SEEK_CUR
        with e ->
          abandon_segment t;
          raise e
      in
      let len = String.length payload in
      Hashtbl.replace t.index key { seg; off = end_ - 1 - len; len; digest });
  Ts_obs.Metrics.observe m_write_ms (ms_since t0);
  Ts_obs.Metrics.incr m_stores

(* A cache must never take the computation down with it: a failed write
   (disk full, unwritable store, injected fault) degrades the run to
   uncached — warned once, counted every time. *)
let store t ~key v =
  try store_exn t ~key v
  with e ->
    Ts_obs.Metrics.incr m_degraded;
    Ts_resil.Warn.once ~key:"persist.store"
      (Printf.sprintf
         "result-cache write failed (%s); continuing uncached"
         (Printexc.to_string e))

let memo t ~key f =
  match t with
  | None -> f ()
  | Some t -> (
      match find t ~key with
      | Some v -> v
      | None ->
          let v = f () in
          store t ~key v;
          v)

module Journal = struct
  type j = {
    path : string;
    done_ : (string, string) Hashtbl.t; (* id -> marshalled payload *)
    mutable oc : out_channel option;
    jlock : Mutex.t;
  }

  let journal_path t name = Filename.concat (Filename.concat t.root "journals") (name ^ ".j")

  (* Parse as much of the log as is well formed — whatever fingerprint it
     was written under, so a mismatch can still report what it is
     discarding. A record whose payload fails its digest is skipped. *)
  let parse s =
    let mlen = String.length journal_magic in
    let hlen = mlen + 1 + 32 + 1 in
    (* "tsj2 " ^ 32 hex ^ "\n" *)
    if
      String.length s < hlen
      || String.sub s 0 mlen <> journal_magic
      || s.[mlen] <> ' '
      || s.[hlen - 1] <> '\n'
    then None
    else begin
      let disk_fp = String.sub s (mlen + 1) 32 in
      let tbl = Hashtbl.create 64 in
      iter_records s hlen (fun ~id ~off ~len ~digest ->
          if Digest.equal (Digest.substring s off len) digest then
            Hashtbl.replace tbl id (String.sub s off len));
      Some (disk_fp, tbl)
    end

  let load t ~name ~fingerprint ~resume =
    Ts_obs.Prof.span "persist.journal.load" @@ fun () ->
    Ts_resil.Fault.guard "journal.open";
    let path = journal_path t name in
    let fingerprint = digest_hex fingerprint in
    let fresh () =
      let oc = open_out_bin path in
      output_string oc (journal_magic ^ " " ^ fingerprint ^ "\n");
      flush oc;
      { path; done_ = Hashtbl.create 64; oc = Some oc; jlock = Mutex.create () }
    in
    if not (resume && Sys.file_exists path) then fresh ()
    else
      match (try parse (read_file path) with _ -> None) with
      | Some (disk_fp, done_) when disk_fp = fingerprint ->
          Ts_obs.Metrics.incr ~by:(Hashtbl.length done_) m_replayed;
          (* Keep appending to the same log: ids recorded twice are fine,
             the last record wins at the next replay. *)
          let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
          { path; done_; oc = Some oc; jlock = Mutex.create () }
      | Some (disk_fp, stale) ->
          (* The journal is real but was written by a run with different
             inputs (configuration, limit or code version): its items
             would be stale. Say what is being thrown away — a silent
             discard looks exactly like a lost journal. *)
          Ts_obs.Metrics.incr m_j_discarded;
          Ts_resil.Warn.once
            ~key:("persist.journal.fingerprint:" ^ name)
            (Printf.sprintf
               "discarding journal %s: its fingerprint %s… does not match \
                this run's %s… — %d completed item(s) were recorded under a \
                different configuration or code version and will be recomputed"
               path (String.sub disk_fp 0 8)
               (String.sub fingerprint 0 8)
               (Hashtbl.length stale));
          fresh ()
      | None ->
          Ts_obs.Metrics.incr m_j_discarded;
          Ts_resil.Warn.once
            ~key:("persist.journal.corrupt:" ^ name)
            (Printf.sprintf
               "discarding journal %s: unreadable or corrupt header; the \
                sweep restarts from scratch"
               path);
          fresh ()

  let find (type a) j ~id : a option =
    match Hashtbl.find_opt j.done_ id with
    | None -> None
    | Some payload -> ( try Some (Marshal.from_string payload 0 : a) with _ -> None)

  (* A journal write failure (disk full, injected fault) degrades the
     sweep to journal-less: the computation continues, later records are
     dropped, and a --resume recomputes whatever went unrecorded. *)
  let record j ~id v =
    Ts_obs.Prof.span "persist.journal.write" @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let payload = Marshal.to_string v [] in
    let rec_ = frame ~id ~digest:(Digest.string payload) payload in
    Fun.protect ~finally:(fun () ->
        Ts_obs.Metrics.observe m_j_write_ms (ms_since t0))
    @@ fun () ->
    Mutex.lock j.jlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock j.jlock)
      (fun () ->
        match j.oc with
        | None -> ()
        | Some oc -> (
            try
              Ts_resil.Fault.guard "journal.write";
              output_string oc rec_;
              flush oc
            with e ->
              close_out_noerr oc;
              j.oc <- None;
              Ts_obs.Metrics.incr m_j_degraded;
              Ts_resil.Warn.once ~key:"persist.journal.write"
                (Printf.sprintf
                   "journal write failed (%s); the sweep continues without a \
                    journal (a --resume will recompute unrecorded items)"
                   (Printexc.to_string e))))

  let finish j =
    (match j.oc with Some oc -> close_out_noerr oc | None -> ());
    j.oc <- None;
    try Sys.remove j.path with Sys_error _ -> ()
end
