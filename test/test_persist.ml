(* Ts_persist (the on-disk result store + sweep journals) and the Cached
   layer over it: roundtrips, corruption tolerance, key versioning,
   journal resume, and the end-to-end guarantee that caching never
   changes results (cold = warm = uncached), with the simulator fast path
   agreeing with exact execution on fuzzed loops. *)

module P = Ts_persist
module Cached = Ts_harness.Cached

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-test-persist-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.file_exists p then
          if Sys.is_directory p then begin
            Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p
      in
      rm dir)
    (fun () -> f (P.open_store ~dir))

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* segments/*.seg, one per writing handle, in creation order — the
   documented layout, relied on here to corrupt records in place. *)
let segments store =
  let d = Filename.concat (P.dir store) "segments" in
  Sys.readdir d |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.sort compare
  |> List.map (Filename.concat d)

let the_segment store =
  match segments store with
  | [ p ] -> p
  | ps -> Alcotest.failf "expected one segment, found %d" (List.length ps)

(* (key, start offset) of every record in a segment, walking the
   documented framing: a "tss1\n" header, then records
   "r <id-len> <payload-len> <digest-hex>\n<id><payload>\n". *)
let segment_records path =
  let s = read path in
  let rec go pos acc =
    match String.index_from_opt s pos '\n' with
    | None -> List.rev acc
    | Some nl -> (
        match
          Scanf.sscanf_opt (String.sub s pos (nl - pos)) "r %d %d %_s"
            (fun idl pl -> (idl, pl))
        with
        | Some (idl, pl) when nl + idl + pl + 1 < String.length s ->
            go (nl + idl + pl + 2) ((String.sub s (nl + 1) idl, pos) :: acc)
        | _ -> List.rev acc)
  in
  go (String.length "tss1\n") []

let test_roundtrip () =
  with_store (fun s ->
      let key = P.digest_hex "roundtrip" in
      check_bool "miss before store" true ((P.find s ~key : int option) = None);
      let v = ("payload", 42, [ 1.5; -3.0 ]) in
      P.store s ~key v;
      check_bool "hit after store" true (P.find s ~key = Some v);
      check_bool "other key still misses" true
        ((P.find s ~key:(P.digest_hex "other") : int option) = None))

let clobber path f =
  let s = read path in
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_corruption_is_a_miss () =
  with_store (fun s ->
      let key = P.digest_hex "corrupt" in
      P.store s ~key [ 1; 2; 3 ];
      let path = the_segment s in
      (* Flip the record's last payload byte (the one before its closing
         newline): the digest check fails, the record leaves the index. *)
      let flip body =
        let b = Bytes.of_string body in
        let i = Bytes.length b - 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
        Bytes.to_string b
      in
      clobber path flip;
      check_bool "garbled entry misses" true
        ((P.find s ~key : int list option) = None);
      (* Undoing the damage on disk does not bring it back: the record
         was dropped, not just skipped once. *)
      clobber path flip;
      check_bool "garbled entry deleted" true
        ((P.find s ~key : int list option) = None);
      (* Truncation likewise: cut the rewritten record mid-payload. *)
      P.store s ~key [ 1; 2; 3 ];
      clobber path (fun body -> String.sub body 0 (String.length body - 4));
      check_bool "truncated entry misses" true
        ((P.find s ~key : int list option) = None);
      (* And the store still works after both. *)
      P.store s ~key [ 4 ];
      check_bool "recovers" true (P.find s ~key = Some [ 4 ]))

(* A crash mid-append leaves a partial record at a segment's end. Cut the
   last record inside its header, its payload and its closing newline:
   a handle opened afterwards serves every earlier record, and the torn
   one misses. *)
let test_torn_segment_tail () =
  with_store (fun s ->
      let keys = List.init 4 (fun i -> P.digest_hex (Printf.sprintf "tail-%d" i)) in
      List.iteri (fun i key -> P.store s ~key (i, "value")) keys;
      let path = the_segment s in
      let intact = read path in
      let last = snd (List.nth (segment_records path) 3) in
      List.iter
        (fun cut ->
          clobber path (fun _ -> String.sub intact 0 cut);
          let s2 = P.open_store ~dir:(P.dir s) in
          List.iteri
            (fun i key ->
              let got : (int * string) option = P.find s2 ~key in
              if i < 3 then
                check_bool
                  (Printf.sprintf "cut at %d: record %d served" cut i)
                  true
                  (got = Some (i, "value"))
              else
                check_bool (Printf.sprintf "cut at %d: torn record misses" cut)
                  true (got = None))
            keys)
        [ last + 3; (last + String.length intact) / 2; String.length intact - 1 ])

(* Each writing handle appends to its own segment; a handle opened later
   indexes them all in creation order, so a key written through both
   handles resolves to the later write. *)
let test_two_handles_interleaved () =
  with_store (fun a ->
      let b = P.open_store ~dir:(P.dir a) in
      let k = P.digest_hex in
      P.store a ~key:(k "shared") "a, earlier";
      P.store a ~key:(k "rewritten") "first";
      for i = 0 to 9 do
        P.store a ~key:(k (Printf.sprintf "a-%d" i)) i;
        P.store b ~key:(k (Printf.sprintf "b-%d" i)) (100 + i)
      done;
      P.store b ~key:(k "shared") "b, later";
      P.store a ~key:(k "rewritten") "second";
      check_int "one segment per writing handle" 2 (List.length (segments a));
      check_bool "a handle sees another's writes only once reopened" true
        ((P.find a ~key:(k "b-0") : int option) = None);
      let c = P.open_store ~dir:(P.dir a) in
      for i = 0 to 9 do
        check_bool (Printf.sprintf "a-%d visible" i) true
          (P.find c ~key:(k (Printf.sprintf "a-%d" i)) = Some i);
        check_bool (Printf.sprintf "b-%d visible" i) true
          (P.find c ~key:(k (Printf.sprintf "b-%d" i)) = Some (100 + i))
      done;
      check_bool "later write wins across handles" true
        (P.find c ~key:(k "shared") = Some "b, later");
      check_bool "later write wins within a segment" true
        (P.find c ~key:(k "rewritten") = Some "second"))

(* A failed append abandons its segment: what was written before stays
   readable, and the next store lands in a new segment. *)
let test_failed_append_recovers () =
  with_store (fun s ->
      let k = P.digest_hex in
      P.store s ~key:(k "before") 1;
      Ts_resil.Warn.set_sink (Some ignore);
      Fun.protect
        ~finally:(fun () ->
          Ts_resil.Fault.disarm ();
          Ts_resil.Warn.set_sink None)
        (fun () ->
          match Ts_resil.Fault.parse "persist.append@1" with
          | Ok plan ->
              Ts_resil.Fault.arm plan;
              P.store s ~key:(k "failed") 2
          | Error e -> Alcotest.fail e);
      check_bool "earlier record readable" true (P.find s ~key:(k "before") = Some 1);
      check_bool "failed record misses" true
        ((P.find s ~key:(k "failed") : int option) = None);
      P.store s ~key:(k "after") 3;
      check_bool "next store lands" true (P.find s ~key:(k "after") = Some 3);
      check_int "the next store started a new segment" 2
        (List.length (segments s));
      let s2 = P.open_store ~dir:(P.dir s) in
      check_bool "reopened: both records served" true
        (P.find s2 ~key:(k "before") = Some 1 && P.find s2 ~key:(k "after") = Some 3))

let test_version_in_key_invalidates () =
  (* Cached stamps code_version into every key; this is the mechanism. *)
  with_store (fun s ->
      let key_v n = P.digest_hex (Printf.sprintf "sim\x00%d\x00inputs" n) in
      P.store s ~key:(key_v Cached.code_version) "old result";
      check_bool "same version hits" true
        (P.find s ~key:(key_v Cached.code_version) = Some "old result");
      check_bool "bumped version misses" true
        ((P.find s ~key:(key_v (Cached.code_version + 1)) : string option) = None))

let test_memo_computes_once () =
  with_store (fun s ->
      let calls = ref 0 in
      let f () = incr calls; !calls * 10 in
      check_int "no store: every call computes" 10 (P.memo None ~key:"k" f);
      check_int "first memo computes" 20 (P.memo (Some s) ~key:"k" f);
      check_int "second memo replays" 20 (P.memo (Some s) ~key:"k" f);
      check_int "f ran twice in total" 2 !calls)

let test_journal_resume () =
  with_store (fun s ->
      let fp = "sweep-config-v1" in
      let j = P.Journal.load s ~name:"sweep" ~fingerprint:fp ~resume:false in
      P.Journal.record j ~id:"loop-a" (1, "a");
      P.Journal.record j ~id:"loop-b" (2, "b");
      (* Simulated kill: no [finish]; the log stays on disk. *)
      let j2 = P.Journal.load s ~name:"sweep" ~fingerprint:fp ~resume:true in
      check_bool "loop-a replayed" true (P.Journal.find j2 ~id:"loop-a" = Some (1, "a"));
      check_bool "loop-b replayed" true (P.Journal.find j2 ~id:"loop-b" = Some (2, "b"));
      check_bool "unknown id misses" true
        ((P.Journal.find j2 ~id:"loop-c" : (int * string) option) = None);
      P.Journal.record j2 ~id:"loop-c" (3, "c");
      P.Journal.finish j2;
      (* A finished sweep leaves nothing to resume. *)
      let j3 = P.Journal.load s ~name:"sweep" ~fingerprint:fp ~resume:true in
      check_bool "finish removes the log" true
        ((P.Journal.find j3 ~id:"loop-a" : (int * string) option) = None))

let test_journal_fingerprint_guard () =
  with_store (fun s ->
      let j = P.Journal.load s ~name:"g" ~fingerprint:"cfg-1" ~resume:false in
      P.Journal.record j ~id:"x" 7;
      (* Config changed between runs: the old log must not replay. *)
      let j2 = P.Journal.load s ~name:"g" ~fingerprint:"cfg-2" ~resume:true in
      check_bool "stale journal discarded" true
        ((P.Journal.find j2 ~id:"x" : int option) = None))

let test_journal_truncated_tail () =
  with_store (fun s ->
      let j = P.Journal.load s ~name:"t" ~fingerprint:"fp" ~resume:false in
      P.Journal.record j ~id:"first" 100;
      P.Journal.record j ~id:"second" 200;
      let path =
        Filename.concat (Filename.concat (P.dir s) "journals") "t.j"
      in
      (* A crash mid-append leaves a ragged tail; replay keeps the prefix. *)
      clobber path (fun body -> String.sub body 0 (String.length body - 5));
      let j2 = P.Journal.load s ~name:"t" ~fingerprint:"fp" ~resume:true in
      check_bool "intact prefix replays" true (P.Journal.find j2 ~id:"first" = Some 100);
      check_bool "torn record dropped" true
        ((P.Journal.find j2 ~id:"second" : int option) = None))

(* --- the Cached layer: caching must never change results --- *)

let sim_setup () =
  let g = Ts_workload.Motivating.ddg () in
  let cfg = Ts_spmt.Config.default in
  let params = cfg.Ts_spmt.Config.params in
  let tms = (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel in
  (g, cfg, params, tms)

(* Kernels carry closures (the machine's describe function), so compare
   their marshal-safe projection: (ii, issue times). *)
let k_plain (k : Ts_modsched.Kernel.t) = (k.ii, k.time)

let test_cached_cold_warm_uncached_equal () =
  let g, cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      Cached.set_store None;
      let run () =
        let tms = Cached.tms_sweep ~params g in
        let sms = Cached.sms g in
        ( k_plain tms.Ts_tms.Tms.kernel,
          k_plain sms.Ts_sms.Sms.kernel,
          Cached.sim ~warmup:64 cfg tms.Ts_tms.Tms.kernel ~trip:256 )
      in
      let uncached = run () in
      with_store (fun s ->
          Cached.set_store (Some s);
          let cold = run () in
          let warm = run () in
          check_bool "cold = uncached" true (cold = uncached);
          check_bool "warm = uncached" true (warm = uncached)))

let test_cached_reconstruction_guard () =
  (* A stored schedule that no longer fits its loop (here: a kernel for a
     different DDG colliding on... nothing — we corrupt the entry payload
     to valid marshal of wrong shape) must be recomputed, not returned. *)
  let g, _cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          let r1 = Cached.tms_sweep ~params g in
          (* Overwrite every entry with a marshalled value of the wrong
             type: find will either fail the digest, or reconstruction
             will reject it — both must fall back to recomputation. *)
          List.iter
            (fun (key, _) ->
              P.store s ~key (( "bogus", [| 3 |] ) : string * int array))
            (segment_records (the_segment s));
          let r2 = Cached.tms_sweep ~params g in
          check_bool "recomputed result identical" true
            (k_plain r1.Ts_tms.Tms.kernel = k_plain r2.Ts_tms.Tms.kernel
            && r1.Ts_tms.Tms.misspec = r2.Ts_tms.Tms.misspec)))

let test_fast_path_equals_exact_on_fuzz_seeds () =
  let cfg = Ts_spmt.Config.default in
  let params = cfg.Ts_spmt.Config.params in
  for seed = 0 to 4 do
    let g = Ts_fuzz.Fuzz.loop_for_seed seed in
    let k = (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel in
    let plan = Ts_spmt.Address_plan.create g in
    let exact = Ts_spmt.Sim.run ~plan ~warmup:32 ~fast:false cfg k ~trip:200 in
    let fast = Ts_spmt.Sim.run ~plan ~warmup:32 ~fast:true cfg k ~trip:200 in
    check_bool (Printf.sprintf "seed %d: fast = exact" seed) true (exact = fast)
  done

(* --- multi-domain store safety ---

   Under the resident pool every worker shares one handle, so appends to
   its segment and updates of its index must not interleave. Hammer both
   the distinct-key and the same-key paths and require zero degradations
   and intact entries. *)

let test_concurrent_store_distinct_keys () =
  with_store (fun s ->
      let degraded0 =
        Ts_obs.Metrics.counter_value
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")
      in
      let n_dom = 4 and per = 50 in
      let doms =
        List.init n_dom (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  P.store s ~key:(P.digest_hex (Printf.sprintf "cc-%d-%d" d i)) (d, i)
                done))
      in
      List.iter Domain.join doms;
      for d = 0 to n_dom - 1 do
        for i = 0 to per - 1 do
          check_bool
            (Printf.sprintf "entry %d/%d intact" d i)
            true
            (P.find s ~key:(P.digest_hex (Printf.sprintf "cc-%d-%d" d i)) = Some (d, i))
        done
      done;
      check_int "no degradations" degraded0
        (Ts_obs.Metrics.counter_value
           (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")))

let test_concurrent_store_same_key () =
  with_store (fun s ->
      let degraded0 =
        Ts_obs.Metrics.counter_value
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")
      in
      let key = P.digest_hex "contended" in
      let n_dom = 4 and per = 100 in
      let doms =
        List.init n_dom (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  P.store s ~key (d, i)
                done))
      in
      List.iter Domain.join doms;
      (match (P.find s ~key : (int * int) option) with
      | Some (d, i) ->
          check_bool "winner is one of the stored values" true
            (d >= 0 && d < n_dom && i >= 0 && i < per)
      | None -> Alcotest.fail "contended entry lost");
      check_int "no degradations under same-key contention" degraded0
        (Ts_obs.Metrics.counter_value
           (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")))

(* --- warmup default: harness, CLI and wire must agree --- *)

let test_sim_default_warmup_matches_cli () =
  let g, cfg, _params, k = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      Cached.set_store None;
      check_int "shared default is the documented 512" 512
        Ts_harness.Defaults.warmup;
      (* [Cached.sim] with the argument omitted must measure exactly what
         an explicit [Defaults.warmup] run measures — the fig2 driver
         once published cold-cache numbers because the default was 0. *)
      let via_harness = Cached.sim cfg k ~trip:256 in
      let direct =
        Ts_spmt.Sim.run ~seed:g.Ts_ddg.Ddg.name ~sync_mem:false
          ~warmup:Ts_harness.Defaults.warmup ~fast:true cfg k ~trip:256
      in
      check_bool "harness default = explicit Defaults.warmup" true
        (via_harness = direct);
      (* The daemon's wire default for a request omitting "warmup" is the
         same shared constant. *)
      let j =
        Ts_obs.Json.Obj
          [
            ("id", Ts_obs.Json.Int 1);
            ("op", Ts_obs.Json.Str "simulate");
            ("ddg", Ts_obs.Json.Str "unparsed-at-this-layer");
          ]
      in
      match Ts_serve.Protocol.request_of_json j with
      | Ok { Ts_serve.Protocol.op = Ts_serve.Protocol.Simulate a; _ } ->
          check_int "wire default = Defaults.warmup" Ts_harness.Defaults.warmup
            a.Ts_serve.Protocol.warmup
      | Ok _ -> Alcotest.fail "simulate request parsed to a different op"
      | Error e -> Alcotest.failf "simulate request rejected: %s" e)

(* --- cached hits must never share mutable state --- *)

let test_cached_hits_share_no_mutable_state () =
  let g, _cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () ->
      Cached.set_store saved;
      Cached.set_lru None)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          Cached.set_lru (Some 32);
          let pristine = k_plain (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel in
          (* 4 workers hammer the same cache entry and scribble over every
             kernel they get back: if any tier (LRU front, store, point
             tables) handed out a shared mutable array, a later fetch
             would see the scribbles. *)
          let doms =
            List.init 4 (fun d ->
                Domain.spawn (fun () ->
                    for i = 0 to 49 do
                      let k = (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel in
                      if k_plain k <> pristine then
                        failwith
                          (Printf.sprintf
                             "domain %d iteration %d: cached hit returned \
                              scribbled state"
                             d i);
                      let scribble (a : int array) =
                        Array.fill a 0 (Array.length a) ((d * 1000) + i)
                      in
                      scribble k.Ts_modsched.Kernel.time;
                      scribble k.Ts_modsched.Kernel.row;
                      scribble k.Ts_modsched.Kernel.stage
                    done))
          in
          List.iter Domain.join doms;
          check_bool "entry still pristine after the hammer" true
            (k_plain (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel = pristine);
          (* The warm-start point table's hits are fresh copies too. *)
          match Cached.point_memo ~engine:"tms" ~params g with
          | None -> Alcotest.fail "warm-start unexpectedly disabled"
          | Some (pm, _flush) -> (
              pm.Ts_tms.Tms.pm_store ~ii:7 ~c_delay:3 ~p_max:0.05
                {
                  Ts_tms.Tms.po_times = Some [| 1; 2; 3 |];
                  po_reject = None;
                  po_tally = (0, 0, 0, 0);
                  po_c2_admit_max = neg_infinity;
                  po_c2_reject_min = infinity;
                };
              match pm.Ts_tms.Tms.pm_find ~ii:7 ~c_delay:3 ~p_max:0.01 with
              | Some { Ts_tms.Tms.po_times = Some a; _ } -> (
                  a.(0) <- 999;
                  match pm.Ts_tms.Tms.pm_find ~ii:7 ~c_delay:3 ~p_max:0.25 with
                  | Some { Ts_tms.Tms.po_times = Some b; _ } ->
                      check_int "point-table hit is a fresh copy" 1 b.(0)
                  | _ -> Alcotest.fail "stored point outcome lost")
              | _ -> Alcotest.fail "stored point outcome not found")))

(* --- warm-started searches are bit-identical to cold ones --- *)

let tms_proj (r : Ts_tms.Tms.result) =
  ( k_plain r.kernel,
    r.mii,
    r.c_delay_threshold,
    r.achieved_c_delay,
    r.p_max,
    r.misspec,
    r.f_min,
    r.attempts,
    r.fell_back )

let cval name =
  Ts_obs.Metrics.counter_value
    (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)

let test_warm_start_bit_identical_on_fuzz_seeds () =
  let params = Ts_isa.Spmt_params.default in
  let saved = Cached.get_store () in
  Fun.protect ~finally:(fun () -> Cached.set_store saved) @@ fun () ->
  with_store (fun s ->
      Cached.set_store (Some s);
      for seed = 0 to 5 do
        let g = Ts_fuzz.Fuzz.loop_for_seed seed in
        let cold = Ts_tms.Tms.schedule_sweep ~params g in
        (match Cached.point_memo ~engine:"tms" ~params g with
        | None -> Alcotest.fail "warm-start unexpectedly disabled"
        | Some (pm, flush) ->
            (* First memoised run populates the point table cold... *)
            let populate = Ts_tms.Tms.schedule_sweep ~point_memo:pm ~params g in
            flush ();
            check_bool (Printf.sprintf "seed %d: populating run = cold" seed)
              true
              (tms_proj populate = tms_proj cold);
            (* ... then a fresh provider reloads it from the store and the
               whole grid walk replays from recorded outcomes. *)
            let pm2, flush2 =
              Option.get (Cached.point_memo ~engine:"tms" ~params g)
            in
            let h0 = cval "tms.warm.point_hits" in
            let warm = Ts_tms.Tms.schedule_sweep ~point_memo:pm2 ~params g in
            flush2 ();
            check_bool (Printf.sprintf "seed %d: warm = cold" seed) true
              (tms_proj warm = tms_proj cold);
            check_bool (Printf.sprintf "seed %d: warm path actually hit" seed)
              true
              (cval "tms.warm.point_hits" > h0));
        (* The IMS instantiation records a different engine's outcomes
           under a different key; spot-check the same property. *)
        if seed < 2 then begin
          let coldi = Ts_tms.Tms_ims.schedule ~params g in
          match Cached.point_memo ~engine:"tms_ims" ~params g with
          | None -> Alcotest.fail "warm-start unexpectedly disabled"
          | Some (pmi, flushi) ->
              let popi =
                Ts_tms.Tms_ims.schedule ~point_memo:pmi ~params g
              in
              flushi ();
              check_bool (Printf.sprintf "seed %d: ims populate = cold" seed)
                true
                (tms_proj popi = tms_proj coldi);
              let pmi2, flushi2 =
                Option.get (Cached.point_memo ~engine:"tms_ims" ~params g)
              in
              let warmi =
                Ts_tms.Tms_ims.schedule ~point_memo:pmi2 ~params g
              in
              flushi2 ();
              check_bool (Printf.sprintf "seed %d: ims warm = cold" seed) true
                (tms_proj warmi = tms_proj coldi)
        end
      done)

let test_warm_start_corrupt_or_missing_falls_back () =
  let params = Ts_isa.Spmt_params.default in
  let g = Ts_workload.Motivating.ddg () in
  let cold = Ts_tms.Tms.schedule_sweep ~params g in
  (* A memo claiming every grid point succeeded with unreconstructable
     times: [Kernel.of_times] rejects them, and every point must fall
     back to a cold attempt — same result, counters included. *)
  let poison =
    {
      Ts_tms.Tms.pm_find =
        (fun ~ii:_ ~c_delay:_ ~p_max:_ ->
          Some
            {
              Ts_tms.Tms.po_times = Some [||];
              po_reject = None;
              po_tally = (9, 9, 9, 9);
              po_c2_admit_max = neg_infinity;
              po_c2_reject_min = infinity;
            });
      pm_store = (fun ~ii:_ ~c_delay:_ ~p_max:_ _ -> ());
    }
  in
  let r = Ts_tms.Tms.schedule_sweep ~point_memo:poison ~params g in
  check_bool "poisoned entries fall back to cold scheduling" true
    (tms_proj r = tms_proj cold);
  (* Every neighbour missing (empty table) degrades to a plain cold
     search. *)
  let empty =
    {
      Ts_tms.Tms.pm_find = (fun ~ii:_ ~c_delay:_ ~p_max:_ -> None);
      pm_store = (fun ~ii:_ ~c_delay:_ ~p_max:_ _ -> ());
    }
  in
  let r2 = Ts_tms.Tms.schedule_sweep ~point_memo:empty ~params g in
  check_bool "missing entries = cold search" true (tms_proj r2 = tms_proj cold)

(* --- the in-memory LRU front --- *)

let test_lru_basics () =
  let l : int P.Lru.t = P.Lru.create ~capacity:3 () in
  check_int "capacity" 3 (P.Lru.capacity l);
  check_bool "miss on empty" true (P.Lru.find l "a" = None);
  P.Lru.put l "a" 1;
  P.Lru.put l "b" 2;
  P.Lru.put l "c" 3;
  check_bool "hit after put" true (P.Lru.find l "a" = Some 1);
  (* "a" was just refreshed, so "b" is now least recently used. *)
  P.Lru.put l "d" 4;
  check_bool "LRU entry evicted" true (P.Lru.find l "b" = None);
  check_bool "refreshed entry survives" true (P.Lru.find l "a" = Some 1);
  check_int "capacity bound holds" 3 (P.Lru.length l);
  P.Lru.put l "a" 10;
  check_bool "put replaces in place" true (P.Lru.find l "a" = Some 10);
  check_int "replace does not grow" 3 (P.Lru.length l);
  P.Lru.clear l;
  check_int "clear empties" 0 (P.Lru.length l);
  check_bool "capacity >= 1 enforced" true
    (match P.Lru.create ~capacity:0 () with
    | (_ : int P.Lru.t) -> false
    | exception Invalid_argument _ -> true)

(* Model-based property: random put/find traffic against a naive
   reference implementation, comparing contents and exact eviction
   order at every step. *)
let test_lru_matches_model () =
  let cap = 4 in
  let l : int P.Lru.t = P.Lru.create ~capacity:cap () in
  (* model: (key, value) list, MRU first *)
  let model = ref [] in
  let model_find k =
    match List.assoc_opt k !model with
    | None -> None
    | Some v ->
        model := (k, v) :: List.remove_assoc k !model;
        Some v
  in
  let model_put k v =
    model := (k, v) :: List.remove_assoc k !model;
    if List.length !model > cap then
      model := List.filteri (fun i _ -> i < cap) !model
  in
  let st = ref 0x2545F491 in
  let rand m = st := (!st * 1103515245 + 12345) land 0x3FFFFFFF; !st mod m in
  for step = 1 to 2000 do
    let k = Printf.sprintf "k%d" (rand 7) in
    if rand 2 = 0 then begin
      let v = rand 1000 in
      P.Lru.put l k v;
      model_put k v
    end
    else begin
      let got = P.Lru.find l k and expect = model_find k in
      if got <> expect then
        Alcotest.failf "step %d: find %s diverged from model" step k
    end;
    if P.Lru.keys_mru_first l <> List.map fst !model then
      Alcotest.failf "step %d: recency order diverged from model" step;
    if P.Lru.length l > cap then Alcotest.failf "step %d: capacity exceeded" step
  done

let test_lru_domain_safety () =
  let l : int P.Lru.t = P.Lru.create ~capacity:64 () in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              let k = Printf.sprintf "k%d" ((d * 37 + i) mod 128) in
              if i land 1 = 0 then P.Lru.put l k i else ignore (P.Lru.find l k)
            done))
  in
  List.iter Domain.join doms;
  check_bool "capacity bound under contention" true (P.Lru.length l <= 64);
  (* The intrusive list is still consistent: walkable and put/find work. *)
  check_int "key walk matches length" (P.Lru.length l)
    (List.length (P.Lru.keys_mru_first l));
  P.Lru.put l "after" 1;
  check_bool "still usable" true (P.Lru.find l "after" = Some 1)

let suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "concurrent stores, distinct keys" `Quick
      test_concurrent_store_distinct_keys;
    Alcotest.test_case "concurrent stores, same key" `Quick
      test_concurrent_store_same_key;
    Alcotest.test_case "lru basics + eviction order" `Quick test_lru_basics;
    Alcotest.test_case "lru matches reference model" `Quick test_lru_matches_model;
    Alcotest.test_case "lru domain safety" `Quick test_lru_domain_safety;
    Alcotest.test_case "corruption is a miss" `Quick test_corruption_is_a_miss;
    Alcotest.test_case "torn segment tail keeps the prefix" `Quick
      test_torn_segment_tail;
    Alcotest.test_case "two handles interleaved, later wins" `Quick
      test_two_handles_interleaved;
    Alcotest.test_case "failed append keeps earlier records" `Quick
      test_failed_append_recovers;
    Alcotest.test_case "version bump invalidates" `Quick test_version_in_key_invalidates;
    Alcotest.test_case "memo computes once" `Quick test_memo_computes_once;
    Alcotest.test_case "journal resume replay" `Quick test_journal_resume;
    Alcotest.test_case "journal fingerprint guard" `Quick test_journal_fingerprint_guard;
    Alcotest.test_case "journal truncated tail" `Quick test_journal_truncated_tail;
    Alcotest.test_case "cached: cold = warm = uncached" `Quick
      test_cached_cold_warm_uncached_equal;
    Alcotest.test_case "cached: bad entry recomputed" `Quick
      test_cached_reconstruction_guard;
    Alcotest.test_case "cached: default warmup = CLI/wire warmup" `Quick
      test_sim_default_warmup_matches_cli;
    Alcotest.test_case "cached: hits share no mutable state" `Quick
      test_cached_hits_share_no_mutable_state;
    Alcotest.test_case "warm-start: bit-identical on fuzz seeds" `Slow
      test_warm_start_bit_identical_on_fuzz_seeds;
    Alcotest.test_case "warm-start: corrupt/missing entries fall back" `Quick
      test_warm_start_corrupt_or_missing_falls_back;
    Alcotest.test_case "sim: fast = exact on fuzz seeds" `Slow
      test_fast_path_equals_exact_on_fuzz_seeds;
  ]
