(* Golden equivalence: the optimised TMS search (incremental dependence
   masks, per-II ASAP cache, allocation-free admissibility, parallel
   sweep) must agree with the list-based seed implementation in
   [Ref_tms] on every observable: byte-identical kernels, exact [f_min],
   attempt counts and fallback flags. The float comparisons are
   intentionally exact ([=], no epsilon) — the optimised P_M product
   multiplies in the same edge order as the seed, so any drift is a bug.

   Also here: the sweep's metrics totals must not depend on the domain
   pool size (satellite of the same PR). *)

module K = Ts_modsched.Kernel

let params = Ts_isa.Spmt_params.default
let two_core = Ts_isa.Spmt_params.two_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_kernel name (expect : K.t) (got : K.t) =
  check_int (name ^ ": ii") expect.K.ii got.K.ii;
  Alcotest.(check (array int)) (name ^ ": issue times") expect.K.time got.K.time;
  Alcotest.(check (array int)) (name ^ ": rows") expect.K.row got.K.row;
  Alcotest.(check (array int)) (name ^ ": stages") expect.K.stage got.K.stage

let check_schedule name g ~params ~p_max =
  let r = Ts_tms.Tms.schedule ~p_max ~params g in
  let e = Ref_tms.schedule ~p_max ~params g in
  check_kernel name e.Ref_tms.kernel r.Ts_tms.Tms.kernel;
  Alcotest.(check (float 0.0)) (name ^ ": f_min") e.Ref_tms.f_min r.Ts_tms.Tms.f_min;
  check_int (name ^ ": attempts") e.Ref_tms.attempts r.Ts_tms.Tms.attempts;
  check_bool (name ^ ": fell_back") e.Ref_tms.fell_back r.Ts_tms.Tms.fell_back

let p_maxes = [ 0.0; 0.01; 0.05; 0.25; 1.0 ]

let test_motivating () =
  let g = Fixtures.motivating () in
  List.iter
    (fun p_max ->
      check_schedule (Printf.sprintf "motivating p_max=%g" p_max) g ~params ~p_max;
      check_schedule
        (Printf.sprintf "motivating/2core p_max=%g" p_max)
        g ~params:two_core ~p_max)
    p_maxes

let test_motivating_sweep () =
  let g = Fixtures.motivating () in
  let r = Ts_tms.Tms.schedule_sweep ~params g in
  let e = Ref_tms.schedule_sweep ~params g in
  check_kernel "sweep pick" e.Ref_tms.kernel r.Ts_tms.Tms.kernel;
  check_int "sweep attempts" e.Ref_tms.attempts r.Ts_tms.Tms.attempts

let test_spec_suite () =
  List.iter
    (fun (bench : Ts_workload.Spec_suite.bench) ->
      let loops = Ts_workload.Spec_suite.loops bench in
      List.iteri
        (fun i g ->
          if i < 2 then
            check_schedule
              (Printf.sprintf "%s[%d]" bench.name i)
              g ~params ~p_max:Ts_tms.Tms.default_p_max)
        loops)
    Ts_workload.Spec_suite.benchmarks

let test_doacross () =
  List.iter
    (fun (sel : Ts_workload.Doacross.selected) ->
      List.iteri
        (fun i g ->
          check_schedule
            (Printf.sprintf "doacross %s[%d]" sel.bench i)
            g ~params ~p_max:Ts_tms.Tms.default_p_max)
        sel.loops)
    Ts_workload.Doacross.all

(* 50 generated DDGs under fixed seeds, at varied sizes and P_max, both
   machine models. Covers fallback loops as well as schedulable ones. *)
let test_generated () =
  for seed = 0 to 49 do
    let n_inst = 8 + (seed mod 5 * 7) in
    let g = Fixtures.generated ~seed ~n_inst () in
    let p_max = List.nth p_maxes (seed mod List.length p_maxes) in
    let ps = if seed mod 2 = 0 then params else two_core in
    check_schedule
      (Printf.sprintf "gen seed=%d n=%d p_max=%g" seed n_inst p_max)
      g ~params:ps ~p_max
  done

(* TMS-IMS has no list-based reference implementation, so its outputs
   are pinned by a recorded table instead: II, issue times, exact f_min
   (written as a hex float, so the comparison is bit-exact), attempts,
   fallback flag and C_delay threshold. The last row caps the II grid
   below MII, which exhausts it and exercises the IMS fallback. *)
let ims_inputs () =
  let g = Fixtures.motivating () in
  let motivating =
    List.concat_map
      (fun p_max ->
        [
          (Printf.sprintf "motivating p_max=%g" p_max, g, params, p_max, None);
          (Printf.sprintf "motivating/2core p_max=%g" p_max, g, two_core, p_max, None);
        ])
      p_maxes
  in
  let generated =
    List.init 20 (fun seed ->
        let n_inst = 8 + (seed mod 5 * 7) in
        let p_max = List.nth p_maxes (seed mod List.length p_maxes) in
        let ps = if seed mod 2 = 0 then params else two_core in
        ( Printf.sprintf "gen seed=%d n=%d p_max=%g" seed n_inst p_max,
          Fixtures.generated ~seed ~n_inst (),
          ps, p_max, None ))
  in
  motivating @ generated
  @ [ ("motivating max_ii=1", g, params, Ts_tms.Tms.default_p_max, Some 1) ]

let ims_golden =
  [
    ( "motivating p_max=0", 8,
      [| 4; 6; 7; 5; 9; 11; 0; 0; 1 |],
      0x1.6p+3, 50, false, 11 );
    ( "motivating/2core p_max=0", 8,
      [| 4; 6; 7; 5; 9; 11; 0; 0; 1 |],
      0x1.6p+3, 35, false, 11 );
    ( "motivating p_max=0.01", 8,
      [| 4; 6; 7; 5; 9; 11; 0; 0; 1 |],
      0x1.6p+3, 50, false, 11 );
    ( "motivating/2core p_max=0.01", 8,
      [| 4; 6; 7; 5; 9; 11; 0; 0; 1 |],
      0x1.6p+3, 35, false, 11 );
    ( "motivating p_max=0.05", 9,
      [| 18; 20; 21; 17; 23; 25; 0; 0; 1 |],
      0x1.4p+3, 41, false, 10 );
    ( "motivating/2core p_max=0.05", 8,
      [| 4; 6; 7; 5; 9; 11; 0; 0; 1 |],
      0x1.6p+3, 30, false, 11 );
    ( "motivating p_max=0.25", 8,
      [| 0; 2; 3; 1; 5; 7; 0; 0; 1 |],
      0x1p+2, 1, false, 4 );
    ( "motivating/2core p_max=0.25", 8,
      [| 0; 2; 3; 1; 5; 7; 0; 0; 1 |],
      0x1.cp+2, 1, false, 4 );
    ( "motivating p_max=1", 8,
      [| 0; 2; 3; 1; 5; 7; 0; 0; 1 |],
      0x1p+2, 1, false, 4 );
    ( "motivating/2core p_max=1", 8,
      [| 0; 2; 3; 1; 5; 7; 0; 0; 1 |],
      0x1.cp+2, 1, false, 4 );
    ( "gen seed=0 n=8 p_max=0", 4,
      [| 0; 1; 1; 2; 2; 7; 6; 6 |],
      0x1.4p+2, 7, false, 5 );
    ( "gen seed=1 n=15 p_max=0.01", 4,
      [| 0; 3; 3; 6; 10; 13; 3; 4; 16; 19; 9; 21; 21; 16; 22 |],
      0x1.cp+2, 10, false, 7 );
    ( "gen seed=2 n=22 p_max=0.05", 8,
      [| 0; 1; 2; 2; 1; 3; 4; 4; 3; 3; 7; 4; 4; 7; 6; 7; 14; 14; 15; 19; 5;
        22 |],
      0x1.cp+2, 30, false, 7 );
    ( "gen seed=3 n=29 p_max=0.25", 8,
      [| 0; 3; 6; 11; 11; 14; 11; 15; 18; 18; 21; 14; 20; 21; 20; 22; 20;
        23; 26; 23; 20; 25; 5; 29; 31; 18; 24; 8; 24 |],
      0x1.4p+3, 22, false, 10 );
    ( "gen seed=4 n=36 p_max=1", 20,
      [| 0; 3; 6; 10; 6; 11; 6; 13; 7; 13; 16; 19; 16; 10; 37; 19; 19; 10;
        14; 56; 37; 58; 16; 79; 55; 98; 77; 74; 55; 34; 98; 95; 58; 74; 95;
        77 |],
      0x1p+3, 85, false, 8 );
    ( "gen seed=5 n=8 p_max=0", 3,
      [| 0; 3; 6; 7; 10; 9; 7; 13 |],
      0x1.8p+2, 6, false, 6 );
    ( "gen seed=6 n=15 p_max=0.01", 5,
      [| 0; 3; 3; 7; 7; 12; 18; 9; 16; 19; 22; 3; 26; 21; 19 |],
      0x1.cp+2, 35, false, 7 );
    ( "gen seed=7 n=22 p_max=0.05", 6,
      [| 0; 4; 4; 7; 5; 8; 5; 4; 5; 11; 15; 6; 8; 18; 7; 6; 9; 10; 19; 9;
        14; 15 |],
      0x1.2p+3, 21, false, 9 );
    ( "gen seed=8 n=29 p_max=0.25", 14,
      [| 0; 3; 6; 6; 3; 9; 12; 6; 13; 25; 10; 22; 22; 10; 13; 22; 38; 25;
        13; 26; 26; 13; 39; 25; 51; 51; 37; 52; 54 |],
      0x1p+3, 58, false, 8 );
    ( "gen seed=9 n=36 p_max=1", 9,
      [| 0; 3; 4; 4; 7; 7; 11; 12; 8; 3; 14; 15; 5; 5; 16; 9; 17; 6; 13; 16;
        10; 13; 18; 17; 19; 10; 14; 21; 24; 20; 17; 9; 19; 15; 20; 29 |],
      0x1.6p+3, 29, false, 11 );
    ( "gen seed=10 n=8 p_max=0", 4,
      [| 0; 1; 1; 5; 2; 4; 6; 5 |],
      0x1.cp+2, 40, false, 7 );
    ( "gen seed=11 n=15 p_max=0.01", 4,
      [| 0; 3; 6; 9; 12; 16; 9; 10; 19; 22; 22; 9; 23; 23; 12 |],
      0x1.cp+2, 10, false, 7 );
    ( "gen seed=12 n=22 p_max=0.05", 6,
      [| 0; 1; 10; 2; 15; 5; 14; 3; 19; 7; 7; 17; 8; 11; 10; 23; 10; 12; 14;
        9; 12; 15 |],
      0x1p+3, 48, false, 8 );
    ( "gen seed=13 n=29 p_max=0.25", 8,
      [| 0; 3; 6; 10; 10; 13; 13; 10; 17; 6; 3; 14; 17; 6; 10; 20; 27; 13;
        13; 17; 27; 28; 12; 17; 20; 23; 23; 15; 15 |],
      0x1.4p+3, 22, false, 10 );
    ( "gen seed=14 n=36 p_max=1", 17,
      [| 0; 3; 6; 7; 6; 6; 3; 9; 9; 7; 13; 42; 9; 9; 12; 12; 15; 13; 15; 12;
        29; 11; 14; 30; 15; 16; 16; 33; 32; 30; 48; 50; 31; 31; 44; 24 |],
      0x1p+3, 55, false, 8 );
    ( "gen seed=15 n=8 p_max=0", 3,
      [| 0; 1; 5; 5; 8; 8; 10; 1 |],
      0x1.cp+2, 8, false, 7 );
    ( "gen seed=16 n=15 p_max=0.01", 9,
      [| 0; 3; 3; 3; 4; 4; 6; 5; 6; 5; 8; 17; 16; 8; 17 |],
      0x1.4p+2, 13, false, 5 );
    ( "gen seed=17 n=22 p_max=0.05", 6,
      [| 0; 1; 1; 4; 1; 2; 4; 5; 9; 5; 9; 4; 7; 8; 8; 11; 8; 11; 15; 12; 15;
        16 |],
      0x1.2p+3, 13, false, 9 );
    ( "gen seed=18 n=29 p_max=0.25", 13,
      [| 0; 1; 1; 4; 2; 4; 7; 2; 6; 9; 6; 10; 10; 10; 22; 5; 23; 6; 22; 24;
        9; 24; 37; 25; 25; 50; 12; 2; 38 |],
      0x1.cp+2, 32, false, 7 );
    ( "gen seed=19 n=36 p_max=1", 9,
      [| 0; 3; 3; 6; 11; 12; 7; 6; 22; 11; 13; 6; 16; 9; 14; 4; 19; 11; 26;
        14; 17; 17; 18; 14; 15; 21; 16; 22; 16; 27; 19; 19; 10; 23; 26; 29 |],
      0x1.6p+3, 29, false, 11 );
    ( "motivating max_ii=1", 8,
      [| 0; 2; 3; 1; 5; 7; 0; 0; 1 |],
      0x1p+2, 0, true, 5 );
  ]

let test_ims_golden () =
  let inputs = ims_inputs () in
  check_int "table covers every input" (List.length inputs) (List.length ims_golden);
  List.iter2
    (fun (name, g, params, p_max, max_ii) (ename, ii, times, f_min, attempts, fell_back, cdt) ->
      Alcotest.(check string) "table row" ename name;
      let r = Ts_tms.Tms_ims.schedule ?max_ii ~p_max ~params g in
      check_int (name ^ ": ii") ii r.Ts_tms.Tms.kernel.K.ii;
      Alcotest.(check (array int)) (name ^ ": issue times") times r.kernel.K.time;
      Alcotest.(check (float 0.0)) (name ^ ": f_min") f_min r.f_min;
      check_int (name ^ ": attempts") attempts r.attempts;
      check_bool (name ^ ": fell_back") fell_back r.fell_back;
      check_int (name ^ ": c_delay_threshold") cdt r.c_delay_threshold)
    inputs ims_golden

(* The tms.* counters must total the same whatever the pool size, for
   the swing sweep and TMS-IMS alike: slot verdicts are flushed per
   attempt and the grid walk itself is unchanged, so jobs must only
   change who increments, never by how much. Both engines share the
   walk, so one TMS-IMS search counts its attempts and its schedule on
   the same counters as a swing search. *)
let test_counters_jobs_invariant () =
  let loops =
    Fixtures.motivating ()
    :: List.init 6 (fun i -> Fixtures.generated ~seed:(100 + i) ~n_inst:18 ())
  in
  let names =
    [
      "tms.attempts"; "tms.schedules"; "tms.fallbacks"; "tms.slots.admitted";
      "tms.slots.resource_reject"; "tms.slots.c1_reject"; "tms.slots.c2_reject";
    ]
  in
  let totals jobs =
    Ts_obs.Metrics.reset Ts_obs.Metrics.default;
    ignore
      (Ts_base.Parallel.map ~jobs
         (fun g ->
           ignore (Ts_tms.Tms.schedule_sweep ~params g);
           Ts_tms.Tms_ims.schedule ~params g)
         loops);
    List.map
      (fun n ->
        Ts_obs.Metrics.counter_value (Ts_obs.Metrics.counter Ts_obs.Metrics.default n))
      names
  in
  let serial = totals 1 in
  let parallel = totals 4 in
  List.iter2
    (fun name (s, p) -> check_int ("counter " ^ name) s p)
    names
    (List.combine serial parallel);
  check_bool "attempts counted" true (List.hd serial > 0);
  let value n =
    Ts_obs.Metrics.counter_value (Ts_obs.Metrics.counter Ts_obs.Metrics.default n)
  in
  let attempts0 = value "tms.attempts" and schedules0 = value "tms.schedules" in
  let r = Ts_tms.Tms_ims.schedule ~params (List.hd loops) in
  check_int "tms_ims attempts counted" r.Ts_tms.Tms.attempts
    (value "tms.attempts" - attempts0);
  check_int "tms_ims schedule counted" 1 (value "tms.schedules" - schedules0)

let suite =
  [
    Alcotest.test_case "motivating example = seed algorithm" `Quick test_motivating;
    Alcotest.test_case "sweep pick = seed algorithm" `Quick test_motivating_sweep;
    Alcotest.test_case "spec suite loops = seed algorithm" `Slow test_spec_suite;
    Alcotest.test_case "doacross loops = seed algorithm" `Slow test_doacross;
    Alcotest.test_case "50 generated loops = seed algorithm" `Slow test_generated;
    Alcotest.test_case "TMS-IMS = recorded golden table" `Quick test_ims_golden;
    Alcotest.test_case "metrics totals independent of --jobs" `Quick
      test_counters_jobs_invariant;
  ]
