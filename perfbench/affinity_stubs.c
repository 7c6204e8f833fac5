/* CPU affinity of the calling thread, for perfbench's drive: the client
   and the server process it spawns (which inherits the mask) share one
   CPU, so every round trip is a local wake-up rather than a cross-CPU
   one.  Linux only; elsewhere getting reports no CPUs and setting
   fails, and the benchmark runs unpinned. */

#define _GNU_SOURCE
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#endif

/* The CPUs the calling thread may run on, ascending. */
value perfbench_get_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal2(list, cell);
  list = Val_emptylist;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int i = CPU_SETSIZE - 1; i >= 0; i--) {
      if (CPU_ISSET(i, &set)) {
        cell = caml_alloc(2, 0);
        Store_field(cell, 0, Val_int(i));
        Store_field(cell, 1, list);
        list = cell;
      }
    }
  }
#endif
  CAMLreturn(list);
}

/* Restricts the calling thread to [cpus]; false if the kernel refused. */
value perfbench_set_affinity(value cpus)
{
  CAMLparam1(cpus);
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (value l = cpus; l != Val_emptylist; l = Field(l, 1)) {
    int cpu = Int_val(Field(l, 0));
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  CAMLreturn(Val_bool(sched_setaffinity(0, sizeof set, &set) == 0));
#else
  CAMLreturn(Val_false);
#endif
}
