(* perfbench/bench.exe — the end-to-end, layer-attributed benchmark.

   One invocation sets up and runs one pass of one workload and prints
   the pass as one JSON line: set-up and wall seconds, the per-call
   latencies, the failed operations, the digest of the deterministic
   outputs and, for a traced pass, the per-layer metrics. perfbench/run.py
   builds this program and the [tsms] daemon, runs the passes, checks the
   outputs against reference.json and aggregates; README.md in this
   directory explains the workloads, the metrics and the layer
   accounting.

   Usage:
     bench.exe --workload suite-cold|unroll-search|serve-mix --seed N
               --pass I --trace 0|1 [--tsms PATH]

   The pass is set up from scratch (inputs generated, pool or daemon
   started) outside its timed window. The seed and the pass index fix
   the order of the work; the outputs do not depend on them.
   The program is driven only through its public entry points:
   [Ts_harness.Cached], [Ts_ddg.Unroll], [Ts_workload] for inputs, and
   [Ts_serve.Client] against a [tsms serve] child process. *)

module Json = Ts_obs.Json
module Metrics = Ts_obs.Metrics
module K = Ts_modsched.Kernel
module Cached = Ts_harness.Cached

let jobs = 2
let now = Unix.gettimeofday
let run_dir = ".bench_run"
let params = Ts_isa.Spmt_params.default
let cfg = Ts_spmt.Config.default
let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com
let warmup = 512

(* serve-mix request shape *)
let serve_requests = 2000
let serve_trip = 400

let failf fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s)) fmt

(* ---- statistics ------------------------------------------------------ *)

(* Linear interpolation between closest ranks (numpy's default), so a
   quantile of a pooled sample moves smoothly with the data. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5

(* ---- layer spans (traced passes only) ---------------------------------

   Spans wrap the benchmark's own calls into each layer and are kept in
   memory as open/close events per domain; the pool observer adds each
   worker's sleeps. After the pass, the timed window is cut at every
   event and each worker's share of each piece goes to exactly one row,
   so busy + idle + unattributed add up to jobs x wall:
   - a worker with a span open counts for the layer of its innermost
     span (when a worker waiting at a join helps run another loop's
     call, the outer call's time pauses);
   - a sleeping worker counts as pool idle;
   - any other worker is running pool sub-tasks it took from a call on
     another domain (the TMS sweep's parallel searches). It counts for
     the layer of the open calls when they are all of one layer
     ([acct.helped_s] totals this share), otherwise as unattributed.
   A join wait inside a call holds its core and counts for that layer.
   Allocation goes to the innermost span of the allocating domain, from
   the domain's own [Gc.counters]; sub-tasks run on another domain are
   not attributed. *)

type layer = Sms | Tms | Sim

let layer_index = function Sms -> 0 | Tms -> 1 | Sim -> 2
let n_layers = 3

type frame = { f_layer : int; mutable w_mark : float; mutable acc_w : float }
type event = { t : float; dom : int; layer : int; opening : bool }

type acct = {
  calls : int array;
  words : float array;
  mutable events : event list;
  mutable sleeps : (float * float) list;
}

let acct =
  { calls = Array.make n_layers 0; words = Array.make n_layers 0.0; events = [];
    sleeps = [] }

let acct_lock = Mutex.create ()
let tracing = Atomic.make false
let stack : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let locked f =
  Mutex.lock acct_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock acct_lock) f

let reset_acct () =
  locked (fun () ->
      Array.fill acct.calls 0 n_layers 0;
      Array.fill acct.words 0 n_layers 0.0;
      acct.events <- [];
      acct.sleeps <- [])

let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span layer f =
  let l = layer_index layer and dom = (Domain.self () :> int) in
  let st = Domain.DLS.get stack in
  let w = domain_words () in
  (match !st with top :: _ -> top.acc_w <- top.acc_w +. (w -. top.w_mark) | [] -> ());
  let fr = { f_layer = l; w_mark = w; acc_w = 0.0 } in
  st := fr :: !st;
  let t = now () in
  locked (fun () -> acct.events <- { t; dom; layer = l; opening = true } :: acct.events);
  let close () =
    let t = now () and w = domain_words () in
    fr.acc_w <- fr.acc_w +. (w -. fr.w_mark);
    st := List.tl !st;
    (match !st with top :: _ -> top.w_mark <- w | [] -> ());
    locked (fun () ->
        acct.events <- { t; dom; layer = l; opening = false } :: acct.events;
        acct.words.(l) <- acct.words.(l) +. fr.acc_w;
        acct.calls.(l) <- acct.calls.(l) + 1)
  in
  Fun.protect ~finally:close f

(* The pool reports each sleep of a worker with nothing to run when the
   sleep ends. This observer chains to the one already installed (it
   feeds the [pool.*] metrics). *)
let () =
  let prev = Ts_base.Parallel.get_observer () in
  Ts_base.Parallel.set_observer
    (Some
       (fun ev ->
         (match ev with
         | Ts_base.Parallel.Idle { wait_s; _ } when Atomic.get tracing ->
             let t = now () in
             locked (fun () -> acct.sleeps <- (t -. wait_s, t) :: acct.sleeps)
         | _ -> ());
         Option.iter (fun f -> f ev) prev))

(* Busy seconds per layer, of which helped, and pool idle, over the
   window [t0, t1]. *)
let attribute ~t0 ~t1 =
  let events, sleeps = locked (fun () -> (acct.events, acct.sleeps)) in
  let changes =
    List.map (fun e -> (e.t, `Span e)) events
    @ List.concat_map (fun (s, e) -> [ (s, `Sleep 1); (e, `Sleep (-1)) ]) sleeps
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  let stacks = Hashtbl.create 8 and open_calls = Array.make n_layers 0 in
  let busy = Array.make n_layers 0.0 and idle = ref 0.0 and helped = ref 0.0 in
  let sleeping = ref 0 in
  let account a b =
    let dt = Float.min b t1 -. Float.max a t0 in
    if dt > 0.0 then begin
      let in_span = ref 0 in
      Hashtbl.iter
        (fun _ st ->
          match !st with
          | l :: _ ->
              incr in_span;
              busy.(l) <- busy.(l) +. dt
          | [] -> ())
        stacks;
      idle := !idle +. (float_of_int !sleeping *. dt);
      let rest = float_of_int (max 0 (jobs - !in_span - !sleeping)) *. dt in
      match List.filter (fun l -> open_calls.(l) > 0) (List.init n_layers Fun.id) with
      | [ l ] ->
          busy.(l) <- busy.(l) +. rest;
          helped := !helped +. rest
      | _ -> ()
    end
  in
  let last =
    List.fold_left
      (fun prev (t, change) ->
        account prev t;
        (match change with
        | `Sleep d -> sleeping := !sleeping + d
        | `Span e ->
            let st =
              match Hashtbl.find_opt stacks e.dom with
              | Some st -> st
              | None ->
                  let st = ref [] in
                  Hashtbl.replace stacks e.dom st;
                  st
            in
            if e.opening then begin
              st := e.layer :: !st;
              open_calls.(e.layer) <- open_calls.(e.layer) + 1
            end
            else begin
              st := (match !st with _ :: rest -> rest | [] -> []);
              open_calls.(e.layer) <- open_calls.(e.layer) - 1
            end);
        Float.max prev t)
      t0 changes
  in
  account last t1;
  (busy, !helped, !idle)

(* ---- metric snapshots --------------------------------------------------

   The same metric names are read from this process's registry (batch
   workloads) or from the daemon's [metrics] op (serve-mix). Histograms
   contribute their count and sum. *)

let snap_counters =
  [ "tms.attempts"; "tms.schedules"; "tms.warm.point_hits"; "sms.schedules";
    "lru.hits"; "lru.misses"; "persist.hits"; "persist.misses"; "pool.steals";
    "serve.shed" ]

let snap_histograms =
  [ "persist.read_ms"; "persist.write_ms"; "tms.attempt_ms"; "sim.run_ms";
    "pool.idle_ms"; "serve.request_ms" ]

type snap = {
  values : (string * float) list;
  buckets : (string * (float * float) list) list;  (* cumulative, by le *)
}

let get s name = Option.value ~default:0.0 (List.assoc_opt name s.values)
let delta s0 s1 name = get s1 name -. get s0 name

let local_snapshot () =
  let r = Metrics.default in
  let counters =
    List.map
      (fun n -> (n, float_of_int (Metrics.counter_value (Metrics.counter r n))))
      snap_counters
  in
  let hists =
    List.concat_map
      (fun n ->
        let h = Metrics.histogram r n in
        [ (n ^ ".count", float_of_int (Metrics.histogram_count h));
          (n ^ ".sum", Metrics.histogram_sum h) ])
      snap_histograms
  in
  { values = counters @ hists; buckets = [] }

(* Prometheus text as rendered by [Metrics.render_prom]. *)
let prom_name n =
  "tsms_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      n

let prom_snapshot text =
  let scalars = Hashtbl.create 64 and bks = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some i -> (
            let name = String.sub line 0 i in
            let v =
              float_of_string_opt
                (String.sub line (i + 1) (String.length line - i - 1))
            in
            match (v, String.index_opt name '{') with
            | None, _ -> ()
            | Some v, None -> Hashtbl.replace scalars name v
            | Some v, Some j ->
                let base = String.sub name 0 j in
                let lbl = String.sub name j (String.length name - j) in
                (* {le="X"} *)
                if String.length lbl > 6 && String.sub lbl 0 5 = "{le=\"" then
                  let le = String.sub lbl 5 (String.length lbl - 7) in
                  let le =
                    if le = "+Inf" then Float.infinity
                    else Option.value ~default:Float.nan (float_of_string_opt le)
                  in
                  Hashtbl.replace bks base
                    ((le, v) :: Option.value ~default:[] (Hashtbl.find_opt bks base))))
    (String.split_on_char '\n' text);
  let find n = Option.value ~default:0.0 (Hashtbl.find_opt scalars n) in
  let counters = List.map (fun n -> (n, find (prom_name n))) snap_counters in
  let hists =
    List.concat_map
      (fun n ->
        [ (n ^ ".count", find (prom_name n ^ "_count"));
          (n ^ ".sum", find (prom_name n ^ "_sum")) ])
      snap_histograms
  in
  let gauges = [ ("serve.queue", find (prom_name "serve.queue")) ] in
  let buckets =
    List.map
      (fun n ->
        ( n,
          List.sort compare
            (Option.value ~default:[]
               (Hashtbl.find_opt bks (prom_name n ^ "_bucket"))) ))
      snap_histograms
  in
  { values = counters @ hists @ gauges; buckets }

(* Quantile of the samples a histogram gained between two snapshots,
   interpolated inside the winning log-scale bucket (~9% resolution). *)
let window_quantile s0 s1 name q =
  let b0 = Option.value ~default:[] (List.assoc_opt name s0.buckets) in
  let b1 = Option.value ~default:[] (List.assoc_opt name s1.buckets) in
  let cum_at b le =
    List.fold_left (fun a (l, c) -> if l <= le then Float.max a c else a) 0.0 b
  in
  let d = List.map (fun (le, c) -> (le, c -. cum_at b0 le)) b1 in
  let n = List.fold_left (fun a (_, c) -> Float.max a c) 0.0 d in
  if n <= 0.0 then 0.0
  else
    let target = q *. n in
    let rec go lo_le lo_c = function
      | [] -> lo_le
      | (le, c) :: rest ->
          if c < target then go le c rest
          else if Float.is_finite le then
            let frac = if c > lo_c then (target -. lo_c) /. (c -. lo_c) else 1.0 in
            lo_le +. (frac *. (le -. lo_le))
          else lo_le
    in
    go 0.0 0.0 d

(* ---- pass results ---------------------------------------------------- *)

type layers = {
  l_busy : float array;
  helped_s : float;
  l_calls : int array;
  l_words : float array;
  idle_s : float;
  gc : float * float * float;  (* minor, major collections; Mwords *)
  counters : (string * float) list;  (* per-layer metrics read from counters *)
}

type pass = {
  setup_s : float;
  wall_s : float;
  loops : int;  (* loop bodies handled *)
  requests : int;  (* calls into the system's entry points *)
  lat_ms : float list;
  attempted : int;
  failed : int;
  digest : string;
  attempts : int;  (* search attempts reported by the results *)
  cycles : int;  (* simulated cycles reported by the results *)
  rss_mb : float;
  traced : layers option;
}

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
      List.fold_left
        (fun a line ->
          try Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.0)
          with Scanf.Scan_failure _ | Failure _ | End_of_file -> a)
        0.0
        (String.split_on_char '\n' s)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let digest_of lines =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare lines)))

(* The output gate: every kernel the benchmark gets back is re-validated
   from first principles, TMS kernels against the C1/C2 thresholds they
   claim (an SMS fallback claims nothing beyond validity). *)
let check_kernel ~what ?claim k =
  match Ts_check.Invariant.check_kernel ?claim k with
  | [] -> true
  | vs ->
      failf "%s: invariant violation\n%s" what (Ts_check.Invariant.report vs);
      false

let tms_claim (r : Ts_tms.Tms.result) =
  if r.fell_back then None
  else
    Some
      { Ts_check.Invariant.c_delay = r.c_delay_threshold; p_max = r.p_max;
        c_reg_com }

let gc_now () =
  let s = Gc.quick_stat () in
  ( float_of_int s.Gc.minor_collections,
    float_of_int s.Gc.major_collections,
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words )

let gc_delta (a0, b0, c0) (a1, b1, c1) = (a1 -. a0, b1 -. b0, (c1 -. c0) /. 1e6)

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let st = Random.State.make seed in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---- batch workloads ------------------------------------------------- *)

(* One call into a layer: timed for the latency sample, spanned when the
   pass is traced, and never allowed to take the pass down. *)
let call lat layer f =
  let t0 = now () in
  let r =
    match if Atomic.get tracing then span layer f else f () with
    | v -> Ok v
    | exception e -> Error (Printexc.to_string e)
  in
  lat := ((now () -. t0) *. 1000.0) :: !lat;
  r

type item = {
  lines : string list;
  i_attempts : int;
  i_cycles : int;
  i_failed : int;
  i_calls : int;
  i_lat : float list;
}

let suite_inputs () =
  List.concat_map
    (fun (b : Ts_workload.Spec_suite.bench) ->
      List.map (fun g -> (b, g)) (Ts_workload.Spec_suite.loops b))
    Ts_workload.Spec_suite.benchmarks

(* The Table 3 DOACROSS loops unrolled x1..x4 (lucas x1..x2: x3 and x4
   alone take 20 s and ~110 s, which would bound nothing). *)
let unroll_inputs () =
  List.concat_map
    (fun (sel : Ts_workload.Doacross.selected) ->
      match sel.loops with
      | [] -> []
      | g0 :: _ ->
          let factors = if sel.bench = "lucas" then [ 1; 2 ] else [ 1; 2; 3; 4 ] in
          List.map
            (fun f ->
              (Printf.sprintf "%s.x%d" sel.bench f, Ts_ddg.Unroll.by g0 ~factor:f))
            factors)
    Ts_workload.Doacross.all

let suite_item ((b : Ts_workload.Spec_suite.bench), (g : Ts_ddg.Ddg.t)) =
  let lat = ref [] in
  let key = b.name ^ "/" ^ g.name in
  let sms = call lat Sms (fun () -> Cached.sms g) in
  let tms = call lat Tms (fun () -> Cached.tms_sweep ~params g) in
  let sim k = call lat Sim (fun () -> Cached.sim ~warmup cfg k ~trip:b.trip) in
  let line tag k (st : Ts_spmt.Sim.stats) =
    Printf.sprintf "%s %s ii=%d c_delay=%d cycles=%d squashes=%d" key tag k.K.ii
      (K.c_delay k ~c_reg_com) st.cycles st.squashes
  in
  let lines, cycles, failed =
    match (sms, tms) with
    | Ok s, Ok t -> (
        match (sim s.kernel, sim t.kernel) with
        | Ok ss, Ok ts ->
            let ok =
              check_kernel ~what:(key ^ " sms") s.kernel
              && check_kernel ~what:(key ^ " tms") ?claim:(tms_claim t) t.kernel
            in
            ( [ line "sms" s.kernel ss; line "tms" t.kernel ts ],
              ss.cycles + ts.cycles,
              if ok then 0 else 1 )
        | Error e, _ | _, Error e ->
            failf "%s: simulation failed: %s" key e;
            ([], 0, 1))
    | Error e, _ | _, Error e ->
        failf "%s: scheduling failed: %s" key e;
        ([], 0, 1)
  in
  let attempts = match tms with Ok t -> t.attempts | Error _ -> 0 in
  { lines; i_attempts = attempts; i_cycles = cycles; i_failed = failed;
    i_calls = List.length !lat; i_lat = !lat }

let unroll_item (name, g) =
  let lat = ref [] in
  match call lat Tms (fun () -> Cached.tms_sweep ~params g) with
  | Ok (t : Ts_tms.Tms.result) ->
      let ok = check_kernel ~what:name ?claim:(tms_claim t) t.kernel in
      {
        lines =
          [ Printf.sprintf "%s ii=%d c_delay=%d attempts=%d" name t.kernel.K.ii
              t.achieved_c_delay t.attempts ];
        i_attempts = t.attempts; i_cycles = 0; i_failed = (if ok then 0 else 1);
        i_calls = 1; i_lat = !lat;
      }
  | Error e ->
      failf "%s: search failed: %s" name e;
      { lines = []; i_attempts = 0; i_cycles = 0; i_failed = 1; i_calls = 1;
        i_lat = !lat }

(* A batch of [jobs] no-op tasks: before the window it starts the pool;
   after it, it wakes every sleeping worker so each reports the sleep it
   was in (the tail past the window's end is clipped). *)
let wake_workers () =
  ignore (Ts_base.Parallel.map ~jobs (fun x -> x) (List.init jobs Fun.id))

(* Input generation, timed as the median of repetitions until 0.25 s
   have been spent: a single millisecond-scale set-up (unroll-search)
   would otherwise be all timer noise. *)
let timed_inputs gen =
  let rec go acc spent =
    let t = now () in
    let v = gen () in
    let dt = now () -. t in
    let acc = dt :: acc and spent = spent +. dt in
    if spent >= 0.25 || List.length acc >= 200 then (median acc, v) else go acc spent
  in
  go [] 0.0

(* [concurrent] runs the items as one pool task each, as the Fig. 4
   harness does; otherwise one pool task makes the calls one after the
   other, as the unrolling study does, and each call has the rest of the
   pool to itself for its own parallel searches. *)
let batch_pass ~seed ~traced ~inputs ~prepare ~concurrent ~item =
  (* set-up: inputs, a fresh store when the workload has one, and a warm
     pool *)
  let gen_s, tasks = timed_inputs (fun () -> shuffle ~seed (inputs ())) in
  let t_setup = now () in
  let cleanup = prepare () in
  wake_workers ();
  let setup_s = gen_s +. (now () -. t_setup) in
  reset_acct ();
  Atomic.set tracing traced;
  let s0 = local_snapshot () and gc0 = gc_now () in
  let t0 = now () in
  let items =
    if concurrent then Ts_base.Parallel.map ~jobs item tasks
    else Ts_base.Pool.await (Ts_base.Pool.submit (fun () -> List.map item tasks))
  in
  let t1 = now () in
  let gc1 = gc_now () and s1 = local_snapshot () in
  if traced then wake_workers ();
  Atomic.set tracing false;
  cleanup ();
  let wall = t1 -. t0 in
  let traced =
    if not traced then None
    else
      let busy, helped, idle = attribute ~t0 ~t1 in
      Some
        {
          l_busy = busy;
          helped_s = helped;
          l_calls = Array.copy acct.calls;
          l_words = Array.copy acct.words;
          idle_s = idle;
          gc = gc_delta gc0 gc1;
          counters = List.map (fun (n, v) -> (n, v -. get s0 n)) s1.values;
        }
  in
  let sum f = List.fold_left (fun a i -> a + f i) 0 items in
  {
    setup_s;
    wall_s = wall;
    loops = List.length tasks;
    requests = sum (fun i -> i.i_calls);
    lat_ms = List.concat_map (fun i -> i.i_lat) items;
    attempted = sum (fun i -> i.i_calls);
    failed = sum (fun i -> i.i_failed);
    digest = digest_of (List.concat_map (fun i -> i.lines) items);
    attempts = sum (fun i -> i.i_attempts);
    cycles = sum (fun i -> i.i_cycles);
    rss_mb = vm_hwm_mb "self";
    traced;
  }

let fresh_store ~pass () =
  let dir = Filename.concat run_dir (Printf.sprintf "store-%d" pass) in
  rm_rf dir;
  Cached.set_store (Some (Ts_persist.open_store ~dir));
  fun () ->
    Cached.set_store None;
    rm_rf dir

let no_store () =
  Cached.set_store None;
  fun () -> ()

(* ---- serve-mix ------------------------------------------------------- *)

(* The request multiset is fixed: 2000 Zipf(1) draws over the 778 suite
   loops from a constant seed, alternately schedule and simulate. The
   run's seed only permutes it, so every seed asks for the same distinct
   keys (the same cold searches) and the digest of the answers is
   seed-independent, while the order — and with it which repeats hit the
   256-entry LRU and which fall through to the store — varies. *)
let serve_draw n_loops =
  let st = Random.State.make [| 0x5e12e |] in
  let w = Array.init n_loops (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  (* a fixed, name-independent rank order: a seeded shuffle *)
  let rank = Array.of_list (shuffle ~seed:[| 0x5eed |] (List.init n_loops Fun.id)) in
  List.init serve_requests (fun i ->
      let x = Random.State.float st total in
      let rec pick r acc =
        if r = n_loops - 1 || acc +. w.(r) > x then r else pick (r + 1) (acc +. w.(r))
      in
      (rank.(pick 0 0.0), i mod 2 = 0))

let request id op =
  { Ts_serve.Protocol.id; op; max_retries = None; deadline_ms = None }

type server = { pid : int; addr : Ts_serve.Server.addr; dir : string }

let server_ref : server option ref = ref None

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] s.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  server_ref := None;
  rm_rf s.dir

let () = at_exit (fun () -> Option.iter stop_server !server_ref)

let start_server ~tsms ~pass =
  let dir = Filename.concat run_dir (Printf.sprintf "serve-%d" pass) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  (* relative socket path: the checkout may sit deeper than sun_path allows *)
  let sock = Filename.concat dir "sock" in
  let log =
    Unix.openfile (Filename.concat dir "log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process tsms
      [| tsms; "serve"; "--jobs"; string_of_int jobs; "--listen"; "unix:" ^ sock;
         "--cache-dir"; Filename.concat dir "cache" |]
      devnull log log
  in
  Unix.close log;
  Unix.close devnull;
  let s = { pid; addr = Ts_serve.Server.Unix_sock sock; dir } in
  server_ref := Some s;
  let deadline = now () +. 60.0 in
  let rec wait () =
    match Ts_serve.Client.round_trip s.addr (request 0 Ping) with
    | Ok r when Ts_serve.Protocol.response_ok r -> ()
    | Ok _ | Error _ | (exception Unix.Unix_error _) ->
        if now () > deadline then failwith "tsms serve did not answer a ping within 60 s";
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "tsms serve exited during start-up");
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  s


let sched_op ddg =
  Ts_serve.Protocol.Schedule
    { ddg; cores = (4, [||]); placement = Ts_isa.Placement.Round_robin; p_max = None;
      unroll = 1 }

let sim_op ddg =
  Ts_serve.Protocol.Simulate
    { s_ddg = ddg; s_cores = (4, [||]); s_placement = Ts_isa.Placement.Round_robin;
      trip = serve_trip; warmup }

let metrics_snapshot addr =
  match Ts_serve.Client.round_trip addr (request 0 Metrics) with
  | Ok r -> (
      match Option.bind (Json.member "prom" r) Json.to_str with
      | Some text -> prom_snapshot text
      | None -> failwith "metrics response without a prom member")
  | Error e -> failwith ("metrics request failed: " ^ e)

let jint j path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_int

let jfloat j path =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Str s) -> float_of_string_opt s
  | _ -> None

(* Rebuild the kernel of a response against the locally parsed loop
   ([Kernel.of_times] revalidates every dependence) and gate it like the
   batch kernels. Returns the digest line, or [None] on any defect. *)
let check_response ~what g resp ~simulate =
  if not (Ts_serve.Protocol.response_ok resp) then begin
    failf "%s: error response %s" what (Json.to_string resp);
    None
  end
  else
    let time =
      match Option.bind (Json.member "kernel" resp) (Json.member "time") with
      | Some (Json.List xs) ->
          Some
            (Array.of_list
               (List.map (fun x -> Option.value ~default:(-1) (Json.to_int x)) xs))
      | _ -> None
    in
    match (jint resp [ "kernel"; "ii" ], time) with
    | Some ii, Some time -> (
        match K.of_times g ~ii time with
        | exception e ->
            failf "%s: kernel does not rebuild: %s" what (Printexc.to_string e);
            None
        | k ->
            let fell_back =
              Json.member "search" resp
              |> Fun.flip Option.bind (Json.member "fell_back")
              = Some (Json.Bool true)
            in
            let claim =
              match
                ( jint resp [ "search"; "c_delay_threshold" ],
                  jfloat resp [ "search"; "p_max_hex" ] )
              with
              | Some c, Some p when not fell_back ->
                  Some { Ts_check.Invariant.c_delay = c; p_max = p; c_reg_com }
              | _ -> None
            in
            if not (check_kernel ~what ?claim k) then None
            else
              let cd =
                Option.value ~default:(-1) (jint resp [ "search"; "achieved_c_delay" ])
              in
              if simulate then
                match
                  (jint resp [ "stats"; "cycles" ], jint resp [ "stats"; "squashes" ])
                with
                | Some cy, Some sq ->
                    Some
                      (Printf.sprintf "%s ii=%d c_delay=%d cycles=%d squashes=%d" what
                         ii cd cy sq)
                | _ ->
                    failf "%s: response without stats" what;
                    None
              else Some (Printf.sprintf "%s ii=%d c_delay=%d" what ii cd))
    | _ ->
        failf "%s: response without a kernel" what;
        None

let serve_pass ~tsms ~seed ~traced ~pass =
  let gen_s, (loops, texts, reqs) =
    timed_inputs (fun () ->
        let loops = Array.of_list (suite_inputs ()) in
        ( loops,
          Array.map (fun (_, g) -> Ts_ddg.Parse.to_string g) loops,
          Array.of_list (shuffle ~seed (serve_draw (Array.length loops))) ))
  in
  let t_setup = now () in
  let s = start_server ~tsms ~pass in
  (* pool warm-up: one compute request on a loop outside the mix *)
  (match
     Ts_serve.Client.round_trip s.addr
       (request 0 (sched_op (Ts_ddg.Parse.to_string (Ts_workload.Motivating.ddg ()))))
   with
  | Ok r when Ts_serve.Protocol.response_ok r -> ()
  | _ -> failwith "warm-up request failed");
  let setup_s = gen_s +. (now () -. t_setup) in
  let s0 = metrics_snapshot s.addr in
  let n = Array.length reqs in
  let resp = Array.make n None and lat = Array.make n 0.0 in
  let next = Atomic.make 0 in
  let client () =
    Ts_serve.Client.with_connection s.addr (fun c ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let li, is_sched = reqs.(i) in
            let op = if is_sched then sched_op texts.(li) else sim_op texts.(li) in
            let t0 = now () in
            let r =
              Ts_serve.Client.request c
                (Ts_serve.Protocol.request_to_json (request (i + 1) op))
            in
            lat.(i) <- (now () -. t0) *. 1000.0;
            resp.(i) <- Some r;
            go ()
          end
        in
        go ())
  in
  let t0 = now () in
  let ds = List.init 2 (fun _ -> Domain.spawn client) in
  List.iter Domain.join ds;
  let t1 = now () in
  let s1 = metrics_snapshot s.addr in
  let rss = vm_hwm_mb (string_of_int s.pid) in
  stop_server s;
  (* the gate: one digest line per distinct (op, loop); repeats must
     agree with the first answer *)
  let seen = Hashtbl.create 1024 in
  let failed = ref 0 and attempts = ref 0 and cycles = ref 0 in
  Array.iteri
    (fun i r ->
      let li, is_sched = reqs.(i) in
      let b, g = loops.(li) in
      let what =
        Printf.sprintf "%s %s/%s" (if is_sched then "schedule" else "simulate")
          b.Ts_workload.Spec_suite.name g.Ts_ddg.Ddg.name
      in
      match r with
      | Some (Ok j) -> (
          match check_response ~what g j ~simulate:(not is_sched) with
          | None -> incr failed
          | Some line -> (
              match Hashtbl.find_opt seen what with
              | Some l when l = line -> ()
              | Some l ->
                  failf "nondeterminism: %s answered both\n  %s\n  %s" what l line;
                  incr failed
              | None ->
                  Hashtbl.replace seen what line;
                  let count path = Option.value ~default:0 (jint j path) in
                  attempts := !attempts + count [ "search"; "attempts" ];
                  cycles := !cycles + count [ "stats"; "cycles" ]))
      | Some (Error e) ->
          failf "%s: transport error: %s" what e;
          incr failed
      | None ->
          failf "%s: no response" what;
          incr failed)
    resp;
  let traced =
    if not traced then None
    else
      let d = delta s0 s1 in
      let busy =
        [| 0.0; d "tms.attempt_ms.sum" /. 1000.0; d "sim.run_ms.sum" /. 1000.0 |]
      in
      let n_sim =
        Array.fold_left (fun a (_, sched) -> if sched then a else a + 1) 0 reqs
      in
      Some
        {
          l_busy = busy;
          helped_s = 0.0;
          l_calls = [| int_of_float (d "sms.schedules"); n; n_sim |];
          l_words = [| 0.0; 0.0; 0.0 |];
          idle_s = d "pool.idle_ms.sum" /. 1000.0;
          gc = (0.0, 0.0, 0.0);
          counters =
            List.map (fun (k, v) -> (k, v -. get s0 k)) s1.values
            @ [ ("serve.server_ms_p50", window_quantile s0 s1 "serve.request_ms" 0.5);
                ("serve.server_ms_p99", window_quantile s0 s1 "serve.request_ms" 0.99);
                ( "serve.queue_max",
                  Float.max (get s0 "serve.queue") (get s1 "serve.queue") ) ];
        }
  in
  {
    setup_s;
    wall_s = t1 -. t0;
    loops = n;
    requests = n;
    lat_ms = Array.to_list lat;
    attempted = n;
    failed = !failed;
    digest = digest_of (Hashtbl.fold (fun _ l a -> l :: a) seen []);
    attempts = !attempts;
    cycles = !cycles;
    rss_mb = rss;
    traced;
  }

let per_layer_of_pass p l =
  let c n = Option.value ~default:0.0 (List.assoc_opt n l.counters) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let jw = float_of_int jobs *. p.wall_s in
  let busy = Array.fold_left ( +. ) 0.0 l.l_busy in
  let attempts = c "tms.attempts" in
  let gc_minor, gc_major, gc_mw = l.gc in
  let lookups = c "lru.hits" +. c "persist.hits" +. c "persist.misses" in
  [
    ("tms.busy_s", "s", l.l_busy.(1));
    ("tms.calls", "count", float_of_int l.l_calls.(1));
    ("tms.attempts", "count", attempts);
    ("tms.us_per_attempt", "us", ratio (l.l_busy.(1) *. 1e6) attempts);
    ("tms.accept_ratio", "ratio", ratio (c "tms.schedules") attempts);
    ("tms.alloc_mw", "Mw", l.l_words.(1) /. 1e6);
    ("tms.warm_point_hits", "count", c "tms.warm.point_hits");
    ("sim.busy_s", "s", l.l_busy.(2));
    ("sim.calls", "count", float_of_int l.l_calls.(2));
    ("sim.cycles", "count", float_of_int p.cycles);
    ("sim.host_ns_per_cycle", "ns", ratio (l.l_busy.(2) *. 1e9) (float_of_int p.cycles));
    ("sim.alloc_mw", "Mw", l.l_words.(2) /. 1e6);
    ("sms.busy_s", "s", l.l_busy.(0));
    ("sms.calls", "count", float_of_int l.l_calls.(0));
    ("sms.alloc_mw", "Mw", l.l_words.(0) /. 1e6);
    ("persist.reads", "count", c "persist.read_ms.count");
    ("persist.read_s", "s", c "persist.read_ms.sum" /. 1000.0);
    ("persist.writes", "count", c "persist.write_ms.count");
    ("persist.write_s", "s", c "persist.write_ms.sum" /. 1000.0);
    ("lru.hits", "count", c "lru.hits");
    ("lru.misses", "count", c "lru.misses");
    ("cache.hit_ratio", "ratio", ratio (c "lru.hits" +. c "persist.hits") lookups);
    ("pool.busy_s", "s", jw -. l.idle_s);
    ("pool.idle_s", "s", l.idle_s);
    ("pool.steals", "count", c "pool.steals");
    ("pool.util", "ratio", ratio (jw -. l.idle_s) jw);
    ("serve.server_ms_p50", "ms", c "serve.server_ms_p50");
    ("serve.server_ms_p99", "ms", c "serve.server_ms_p99");
    ( "serve.wire_ms_p50", "ms",
      if List.mem_assoc "serve.server_ms_p50" l.counters then
        quantile 0.5 p.lat_ms -. c "serve.server_ms_p50"
      else 0.0 );
    ("serve.queue_max", "count", c "serve.queue_max");
    ("serve.shed", "count", c "serve.shed");
    ("gc.minor", "count", gc_minor);
    ("gc.major", "count", gc_major);
    ("gc.alloc_mw", "Mw", gc_mw);
    ("acct.wall_s", "s", p.wall_s);
    ("acct.jobs_x_wall_s", "s", jw);
    ("acct.helped_s", "s", l.helped_s);
    ("acct.unattributed_s", "s", jw -. busy -. l.idle_s);
  ]

(* ---- main ------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  pass : int;
  trace : bool;
  tsms : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload suite-cold|unroll-search|serve-mix --seed N \
     --pass I --trace 0|1 [--tsms PATH]";
  exit 2

let parse_args () =
  let int_arg s k = match int_of_string_opt s with Some n -> k n | None -> usage () in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: tl -> go { a with workload = w } tl
    | "--seed" :: s :: tl -> int_arg s (fun seed -> go { a with seed } tl)
    | "--pass" :: s :: tl -> int_arg s (fun pass -> go { a with pass } tl)
    | "--trace" :: ("0" | "1" as t) :: tl -> go { a with trace = t = "1" } tl
    | "--tsms" :: p :: tl -> go { a with tsms = p } tl
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = 1; pass = 0; trace = false; tsms = "" }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem a.workload [ "suite-cold"; "unroll-search"; "serve-mix" ]) then
    usage ();
  if a.workload = "serve-mix" && not (Sys.file_exists a.tsms) then begin
    prerr_endline "perfbench: serve-mix needs --tsms PATH (the tsms executable)";
    exit 2
  end;
  a

let pass_json p =
  let f x = Json.Float x and i x = Json.Int x in
  Json.Obj
    [
      ("setup_s", f p.setup_s);
      ("wall_s", f p.wall_s);
      ("loops", i p.loops);
      ("requests", i p.requests);
      ("attempted", i p.attempted);
      ("failed", i p.failed);
      ("digest", Json.Str p.digest);
      ("tms_attempts", i p.attempts);
      ("sim_cycles", i p.cycles);
      ("peak_rss_mb", f p.rss_mb);
      ("latency_ms", Json.List (List.map f p.lat_ms));
      ( "layers",
        match p.traced with
        | None -> Json.Null
        | Some l ->
            Json.Obj
              (List.map
                 (fun (n, u, v) -> (n, Json.Obj [ ("value", f v); ("unit", Json.Str u) ]))
                 (per_layer_of_pass p l)) );
    ]

(* One pass per process, so every pass starts as cold as a [tsms] command
   does: a fresh heap, a fresh pool. perfbench/run.py runs the passes,
   checks the outputs against reference.json and aggregates. *)
let () =
  let a = parse_args () in
  Ts_base.Parallel.set_jobs jobs;
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let p =
    match a.workload with
    | "suite-cold" ->
        batch_pass ~seed:[| a.seed; a.pass |] ~traced:a.trace ~inputs:suite_inputs
          ~prepare:(fresh_store ~pass:a.pass) ~concurrent:true ~item:suite_item
    | "unroll-search" ->
        batch_pass ~seed:[| a.seed; a.pass |] ~traced:a.trace ~inputs:unroll_inputs
          ~prepare:no_store ~concurrent:false ~item:unroll_item
    | _ -> serve_pass ~tsms:a.tsms ~seed:[| a.seed; a.pass |] ~traced:a.trace ~pass:a.pass
  in
  print_endline (Json.to_string (pass_json p))
