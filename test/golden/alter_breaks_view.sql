-- Example 2 with a schema change that drops the join column of r2:
-- view v cannot survive it, so the run is rejected with "run error:"
TABLE r1 (W INT, X INT);
TABLE r2 (X INT, Y INT);
VIEW v AS SELECT r1.W FROM r1, r2 WHERE r1.X = r2.X;
INSERT INTO r1 VALUES (1, 2);
UPDATES;
INSERT INTO r2 VALUES (2, 3);
ALTER TABLE r2 DROP COLUMN X;
INSERT INTO r1 VALUES (4, 2);
