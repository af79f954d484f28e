let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let arch_other_involutive () =
  List.iter
    (fun a ->
      checkb "other . other = id" true (Isa.Arch.other (Isa.Arch.other a) = a))
    Isa.Arch.all

let arch_string_roundtrip () =
  List.iter
    (fun a ->
      check
        (Alcotest.option
           (Alcotest.testable Isa.Arch.pp Isa.Arch.equal))
        "of_string . to_string" (Some a)
        (Isa.Arch.of_string (Isa.Arch.to_string a)))
    Isa.Arch.all

let arch_aliases () =
  checkb "aarch64" true (Isa.Arch.of_string "AArch64" = Some Isa.Arch.Arm64);
  checkb "amd64" true (Isa.Arch.of_string "amd64" = Some Isa.Arch.X86_64);
  checkb "unknown" true (Isa.Arch.of_string "riscv" = None)

let arch_pointers_64bit () =
  List.iter
    (fun a -> checki "8-byte pointers" 8 (Isa.Arch.pointer_size a))
    Isa.Arch.all

let register_counts () =
  checki "arm64 gprs" 32 (List.length (Isa.Register.all Isa.Arch.Arm64));
  checki "x86 gprs" 16 (List.length (Isa.Register.all Isa.Arch.X86_64));
  checki "arm64 callee-saved" 10
    (List.length (Isa.Register.callee_saved Isa.Arch.Arm64));
  checki "x86 callee-saved" 6
    (List.length (Isa.Register.callee_saved Isa.Arch.X86_64))

let register_argument_conventions () =
  checki "arm64 args" 8 (List.length (Isa.Register.argument Isa.Arch.Arm64));
  checki "x86 args" 6 (List.length (Isa.Register.argument Isa.Arch.X86_64));
  check Alcotest.string "x86 first arg" "rdi"
    (List.hd (Isa.Register.argument Isa.Arch.X86_64)).Isa.Register.name;
  check Alcotest.string "arm first arg" "x0"
    (List.hd (Isa.Register.argument Isa.Arch.Arm64)).Isa.Register.name

let register_link_asymmetry () =
  (* The defining ABI asymmetry the r_AB mapping must bridge. *)
  checkb "arm64 has a link register" true
    (Isa.Register.link Isa.Arch.Arm64 <> None);
  checkb "x86 pushes RA on the stack" true
    (Isa.Register.link Isa.Arch.X86_64 = None)

let register_sp_fp_constants () =
  List.iter
    (fun (arch, sp, fp) ->
      let same = Alcotest.testable Isa.Register.pp ( = ) in
      check same "stack pointer" (Isa.Register.by_name arch sp)
        (Isa.Register.stack_pointer arch);
      check same "frame pointer" (Isa.Register.by_name arch fp)
        (Isa.Register.frame_pointer arch);
      checkb "one shared stack pointer value" true
        (Isa.Register.stack_pointer arch == Isa.Register.stack_pointer arch))
    [ (Isa.Arch.Arm64, "sp", "x29"); (Isa.Arch.X86_64, "rsp", "rbp") ]

let register_by_name () =
  let r = Isa.Register.by_name Isa.Arch.Arm64 "x19" in
  checkb "callee saved" true (Isa.Register.is_callee_saved r);
  let rax = Isa.Register.by_name Isa.Arch.X86_64 "rax" in
  checkb "rax caller saved" false (Isa.Register.is_callee_saved rax);
  Alcotest.check_raises "unknown register" Not_found (fun () ->
      ignore (Isa.Register.by_name Isa.Arch.X86_64 "x19"))

let register_sets_disjoint () =
  List.iter
    (fun arch ->
      let cs = Isa.Register.callee_saved arch in
      let crs = Isa.Register.caller_saved arch in
      List.iter
        (fun r ->
          checkb "disjoint save classes" false
            (List.exists (Isa.Register.equal r) crs))
        cs)
    Isa.Arch.all

let abi_basics () =
  List.iter
    (fun arch ->
      let abi = Isa.Abi.of_arch arch in
      checki "16-byte stack alignment" 16 abi.Isa.Abi.stack_alignment;
      checki "8-byte slots" 8 abi.Isa.Abi.slot_size)
    Isa.Arch.all;
  checki "x86 red zone" 128 (Isa.Abi.of_arch Isa.Arch.X86_64).Isa.Abi.red_zone;
  checki "arm red zone" 0 (Isa.Abi.of_arch Isa.Arch.Arm64).Isa.Abi.red_zone

let abi_frame_size_aligned () =
  List.iter
    (fun arch ->
      let abi = Isa.Abi.of_arch arch in
      for locals = 0 to 10 do
        for saves = 0 to 8 do
          let size =
            Isa.Abi.frame_size abi ~locals_bytes:(locals * 8)
              ~callee_saves:saves
          in
          checki "aligned" 0 (size mod 16);
          checkb "fits contents" true
            (size >= abi.Isa.Abi.frame_record_size + (saves * 8) + (locals * 8))
        done
      done)
    Isa.Arch.all

let abi_frame_sizes_differ_across_isas () =
  (* Different callee-saved budgets mean the same function gets different
     frames — the reason stacks must be transformed. *)
  let a = Isa.Abi.of_arch Isa.Arch.Arm64 and x = Isa.Abi.of_arch Isa.Arch.X86_64 in
  checkb "return address conventions differ" true
    (a.Isa.Abi.return_address <> x.Isa.Abi.return_address)

let align_up_cases () =
  checki "already aligned" 16 (Isa.Abi.align_up 16 16);
  checki "rounds up" 32 (Isa.Abi.align_up 17 16);
  checki "zero" 0 (Isa.Abi.align_up 0 16)

let cost_model_x86_faster () =
  let x = Isa.Cost_model.of_arch Isa.Arch.X86_64 in
  let a = Isa.Cost_model.of_arch Isa.Arch.Arm64 in
  List.iter
    (fun cat ->
      let s = Isa.Cost_model.speedup_vs x a cat in
      checkb "xeon 2-4x faster" true (s >= 2.0 && s <= 4.5))
    Isa.Cost_model.categories

let cost_model_seconds_positive () =
  List.iter
    (fun arch ->
      let m = Isa.Cost_model.of_arch arch in
      List.iter
        (fun cat ->
          let s = Isa.Cost_model.seconds_for m cat ~instructions:1e9 in
          checkb "positive time" true (s > 0.0);
          (* 1e9 instructions should take between 0.05 and 2 seconds on
             either prototype machine. *)
          checkb "plausible magnitude" true (s > 0.05 && s < 2.0))
        Isa.Cost_model.categories)
    Isa.Arch.all

let cost_model_memory_slowest () =
  List.iter
    (fun arch ->
      let m = Isa.Cost_model.of_arch arch in
      checkb "memory-bound is slowest" true
        (Isa.Cost_model.mips m Isa.Cost_model.Memory
        <= Isa.Cost_model.mips m Isa.Cost_model.Compute))
    Isa.Arch.all

let suite =
  [
    ("arch other involutive", `Quick, arch_other_involutive);
    ("arch string roundtrip", `Quick, arch_string_roundtrip);
    ("arch string aliases", `Quick, arch_aliases);
    ("arch 64-bit pointers", `Quick, arch_pointers_64bit);
    ("register file sizes", `Quick, register_counts);
    ("argument registers per ABI", `Quick, register_argument_conventions);
    ("link register asymmetry", `Quick, register_link_asymmetry);
    ("register lookup by name", `Quick, register_by_name);
    ("sp/fp constants equal by_name", `Quick, register_sp_fp_constants);
    ("callee/caller-saved disjoint", `Quick, register_sets_disjoint);
    ("abi constants", `Quick, abi_basics);
    ("abi frame sizes aligned and sufficient", `Quick, abi_frame_size_aligned);
    ("abi return-address conventions differ", `Quick,
     abi_frame_sizes_differ_across_isas);
    ("align_up", `Quick, align_up_cases);
    ("cost model: xeon faster than x-gene", `Quick, cost_model_x86_faster);
    ("cost model: plausible times", `Quick, cost_model_seconds_positive);
    ("cost model: memory-bound slowest", `Quick, cost_model_memory_slowest);
  ]
