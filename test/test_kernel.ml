(* Kernel extraction and its static metrics (Definitions 1-2, MaxLive,
   copies, SEND/RECV planning). *)

module K = Ts_modsched.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* chain of 3 ialu at ii=2: times 0,1,2 -> stages 0,0,1 *)
let chain_kernel () = K.of_times (Fixtures.chain 3) ~ii:2 [| 0; 1; 2 |]

let test_normalisation_rows_stages () =
  let k = chain_kernel () in
  Alcotest.(check (array int)) "rows" [| 0; 1; 0 |] k.K.row;
  Alcotest.(check (array int)) "stages" [| 0; 0; 1 |] k.K.stage;
  check_int "n_stages" 2 k.K.n_stages

let test_normalisation_multiple_of_ii () =
  (* raw times shifted by +5: normalisation subtracts a multiple of II, so
     rows are unchanged mod II *)
  let k = K.of_times (Fixtures.chain 3) ~ii:2 [| 5; 6; 7 |] in
  Alcotest.(check (array int)) "rows preserved" [| 1; 0; 1 |] k.K.row;
  check_bool "min time within [0, ii)" true
    (Array.fold_left min max_int k.K.time < 2)

let test_constraint_violation_rejected () =
  check_bool "violated dependence rejected" true
    (match K.of_times (Fixtures.chain 3) ~ii:2 [| 0; 0; 2 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_resource_violation_rejected () =
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  for _ = 1 to 3 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  check_bool "3 loads on 2 ports rejected" true
    (match K.of_times g ~ii:2 [| 0; 0; 0 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_d_ker_basic () =
  let k = chain_kernel () in
  let e01 = k.K.g.edges.(0) and e12 = k.K.g.edges.(1) in
  check_int "same-stage d0 edge" 0 (K.d_ker k e01);
  check_int "stage-crossing d0 edge" 1 (K.d_ker k e12)

let test_d_ker_turned_intra () =
  (* the paper's n8 -> n5: a distance-1 dependence whose producer sits one
     stage later becomes intra-thread (d_ker = 0) *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let p = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b ~dist:1 p c;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:3 [| 4; 2 |] in
  check_int "d_ker 0" 0 (K.d_ker k g.edges.(0))

let test_inter_iter_partition () =
  let k = chain_kernel () in
  check_int "one inter-thread reg dep" 1 (List.length (K.inter_iter_reg_deps k));
  check_int "no mem deps" 0 (List.length (K.inter_iter_mem_deps k))

let test_sync_definition2 () =
  (* sync(x, y) = row x - row y + lat x + c_reg_com *)
  let k = chain_kernel () in
  let e12 = k.K.g.edges.(1) in
  (* row(n1)=1, row(n2)=0, lat 1, c 3 -> 5 *)
  check_int "sync" 5 (K.sync k ~c_reg_com:3 e12)

let test_sync_motivating_paper_value () =
  let g = Fixtures.motivating () in
  let sms = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  check_int "SMS C_delay is the paper's 11" 11 (K.c_delay sms ~c_reg_com:3)

let test_c_delay_no_deps () =
  (* single-stage chain entirely within one iteration: no inter deps *)
  let k = K.of_times (Fixtures.chain 3) ~ii:4 [| 0; 1; 2 |] in
  check_int "c_delay zero" 0 (K.c_delay k ~c_reg_com:3)

let test_max_live_chain () =
  let k = chain_kernel () in
  (* lifetimes: n0:[0,1) n1:[1,2) and the tail n2 holds its (unconsumed)
     result for one cycle, [2,3) — rows 0 and 1 each see one of
     {n0, n2} plus nothing else, so two values coexist at row 0 *)
  check_int "max_live" 2 (K.max_live k)

let test_max_live_overlap () =
  (* producer consumed 2*ii later: the value spans two kernel instances;
     the consumer's own (unconsumed) result occupies a third register *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let p = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b p c;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:2 [| 0; 4 |] in
  check_int "three live copies" 3 (K.max_live k)

let test_max_live_counts_dead_producers () =
  (* Regression: a value-producing node with no register consumer still
     occupies a register for at least one cycle. Two loads issuing in the
     same row, each feeding only a store through memory, used to report
     max_live = 0. Stores and branches produce no value and stay out. *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let s = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Store in
  let l1 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  let l2 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load in
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:0.5 s l1;
  Ts_ddg.Ddg.Builder.mem_dep b ~dist:1 ~prob:0.5 s l2;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:4 [| 0; 1; 1 |] in
  check_int "both loaded values occupy registers" 2 (K.max_live k);
  check_int "store holds no register" 2
    (List.length (K.lifetimes k))

let test_max_live_motivating () =
  (* pin the figure the register-pressure analyses consume *)
  let g = Fixtures.motivating () in
  let sms = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  check_int "motivating SMS max_live" 5 (K.max_live sms)

let test_copies_needed () =
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let p = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b p c;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:2 [| 0; 4 |] in
  (* lifetime 4 cycles = 2 II windows -> 1 copy *)
  check_int "one copy" 1 (K.copies_needed k);
  let k2 = K.of_times g ~ii:2 [| 0; 1 |] in
  check_int "short lifetime, no copy" 0 (K.copies_needed k2)

let test_producers_and_pairs () =
  let k = chain_kernel () in
  (match K.producers k with
  | [ (v, hops) ] ->
      check_int "producer is n1" 1 v;
      check_int "one hop" 1 hops
  | _ -> Alcotest.fail "expected exactly one producer");
  check_int "pairs per iter" 1 (K.send_recv_pairs_per_iter k)

let test_producers_shared () =
  (* one producer feeding two cross-thread consumers: one pair only *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let p = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c1 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c2 = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b ~dist:1 p c1;
  Ts_ddg.Ddg.Builder.dep b ~dist:1 p c2;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:3 [| 0; 1; 2 |] in
  check_int "shared producer, one pair" 1 (K.send_recv_pairs_per_iter k)

let test_multi_hop_producer () =
  (* distance-2 consumer: the value relays over 2 hops *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let p = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  let c = Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu in
  Ts_ddg.Ddg.Builder.dep b ~dist:2 p c;
  let g = Ts_ddg.Ddg.Builder.build b in
  let k = K.of_times g ~ii:3 [| 0; 1 |] in
  check_int "two hops" 2 (K.send_recv_pairs_per_iter k)

let test_span () =
  let k = chain_kernel () in
  check_int "span = last issue + lat" 3 (K.span k)

let test_pp_runs () =
  let k = chain_kernel () in
  check_bool "pp output non-empty" true
    (String.length (Format.asprintf "%a" K.pp k) > 0)

let prop_sms_kernels_valid =
  QCheck.Test.make ~count:40 ~name:"SMS kernels validate; d_ker >= 0; rows in range"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_sms.Sms.schedule g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          let k = r.Ts_sms.Sms.kernel in
          K.validate k;
          Array.for_all (fun (e : Ts_ddg.Ddg.edge) -> K.d_ker k e >= 0) g.edges
          && Array.for_all (fun r -> r >= 0 && r < k.K.ii) k.K.row
          && Array.for_all (fun t -> t >= 0) k.K.time)

let prop_max_live_positive =
  QCheck.Test.make ~count:30 ~name:"MaxLive >= 1 when a value crosses the kernel"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_sms.Sms.schedule g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          let k = r.Ts_sms.Sms.kernel in
          K.max_live k >= if Ts_ddg.Ddg.reg_edges g = [] then 0 else 1)

(* --- prologue / epilogue --- *)

let slices_kernel () =
  (* 3-node chain at ii=2: stages 0,0,1 *)
  Ts_modsched.Kernel.of_times (Fixtures.chain 3) ~ii:2 [| 0; 1; 2 |]

let test_thread_slice_prologue () =
  let k = slices_kernel () in
  (* thread 0 runs only stage-0 instructions *)
  Alcotest.(check (list int)) "prologue thread" [ 0; 1 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:0 ~trip:5);
  (* middle threads run everything, in row order (ties by id) *)
  Alcotest.(check (list int)) "steady state" [ 0; 2; 1 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:2 ~trip:5);
  (* the final thread drains stage 1 *)
  Alcotest.(check (list int)) "epilogue thread" [ 2 ]
    (Ts_modsched.Codegen.thread_slice k ~thread:5 ~trip:5)

let test_thread_slice_conservation () =
  let k = slices_kernel () in
  let trip = 7 in
  let total = ref 0 in
  for j = 0 to Ts_modsched.Codegen.n_threads k ~trip - 1 do
    total := !total + List.length (Ts_modsched.Codegen.thread_slice k ~thread:j ~trip)
  done;
  check_int "every source instruction exactly once"
    (trip * Ts_ddg.Ddg.n_nodes k.Ts_modsched.Kernel.g)
    !total

let prop_slice_conservation =
  QCheck.Test.make ~count:25 ~name:"thread slices conserve instructions"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_sms.Sms.schedule g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          let k = r.Ts_sms.Sms.kernel in
          let trip = 11 in
          let total = ref 0 in
          for j = 0 to Ts_modsched.Codegen.n_threads k ~trip - 1 do
            total :=
              !total + List.length (Ts_modsched.Codegen.thread_slice k ~thread:j ~trip)
          done;
          !total = trip * Ts_ddg.Ddg.n_nodes g)

(* --- register pressure --- *)

let test_fits_registers () =
  let g = Fixtures.motivating () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  check_bool "small kernel fits" true (Ts_modsched.Kernel.fits_registers k)

let test_suite_register_pressure () =
  (* TMS's aggressive stage counts must still fit the register file *)
  let params = Ts_isa.Spmt_params.default in
  let loops = Ts_workload.Spec_suite.loops (Ts_workload.Spec_suite.find "mgrid") in
  List.iter
    (fun g ->
      let r = Ts_tms.Tms.schedule ~params g in
      check_bool
        (g.Ts_ddg.Ddg.name ^ " within register budget")
        true
        (Ts_modsched.Kernel.fits_registers r.Ts_tms.Tms.kernel))
    loops

let suite =
  [
    Alcotest.test_case "normalise: rows and stages" `Quick test_normalisation_rows_stages;
    Alcotest.test_case "normalise: multiple of II" `Quick test_normalisation_multiple_of_ii;
    Alcotest.test_case "reject: dependence violation" `Quick test_constraint_violation_rejected;
    Alcotest.test_case "reject: resource violation" `Quick test_resource_violation_rejected;
    Alcotest.test_case "d_ker: basic (Def 1)" `Quick test_d_ker_basic;
    Alcotest.test_case "d_ker: carried dep turned intra" `Quick test_d_ker_turned_intra;
    Alcotest.test_case "inter-iteration dep partition" `Quick test_inter_iter_partition;
    Alcotest.test_case "sync: Definition 2" `Quick test_sync_definition2;
    Alcotest.test_case "sync: paper's C_delay=11 for SMS" `Quick test_sync_motivating_paper_value;
    Alcotest.test_case "c_delay: no inter deps" `Quick test_c_delay_no_deps;
    Alcotest.test_case "max_live: chain" `Quick test_max_live_chain;
    Alcotest.test_case "max_live: overlapping lifetime" `Quick test_max_live_overlap;
    Alcotest.test_case "max_live: dead producers counted" `Quick test_max_live_counts_dead_producers;
    Alcotest.test_case "max_live: motivating loop pinned" `Quick test_max_live_motivating;
    Alcotest.test_case "copies_needed" `Quick test_copies_needed;
    Alcotest.test_case "producers and SEND/RECV pairs" `Quick test_producers_and_pairs;
    Alcotest.test_case "producers: shared consumer" `Quick test_producers_shared;
    Alcotest.test_case "producers: multi-hop" `Quick test_multi_hop_producer;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "pp renders" `Quick test_pp_runs;
    QCheck_alcotest.to_alcotest prop_sms_kernels_valid;
    QCheck_alcotest.to_alcotest prop_max_live_positive;
  ]

(* Codegen thread slices and the register-file check, run as their own
   group "codegen+slices". *)
let codegen_suite =
  [
    Alcotest.test_case "slices: prologue/kernel/epilogue" `Quick
      test_thread_slice_prologue;
    Alcotest.test_case "slices: conservation" `Quick test_thread_slice_conservation;
    QCheck_alcotest.to_alcotest prop_slice_conservation;
    Alcotest.test_case "registers: small kernel fits" `Quick test_fits_registers;
    Alcotest.test_case "registers: TMS suite pressure" `Slow
      test_suite_register_pressure;
  ]
